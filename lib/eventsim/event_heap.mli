(** Binary min-heap of timestamped items with stable FIFO tie-breaking.

    The core data structure of the event engine: {!pop_payload} always
    removes the item with the smallest timestamp, and among equal
    timestamps the one inserted first. This determinism matters — the
    simulator's results must be a pure function of its seed, and the
    paper's constant-service configurations produce many simultaneous
    events.

    The entry order is the explicit monomorphic comparison
    [time ascending, then seq ascending] — a total order defined in one
    place, with no dependence on the polymorphic compare runtime. [push]
    rejects non-finite timestamps, so NaN never enters the order.

    Internally the heap is struct-of-arrays: each heap position holds a
    timestamp, a sequence number and the index of a payload slot, all in
    flat unboxed arrays, and each payload is written once into its slot.
    A hole-based sift therefore moves only floats and ints, touches no
    heap block and never runs the write barrier. {!push} allocates only
    the payload's [Some] cell, which {!pop_payload} hands back as stored,
    and the slot it vacates is nulled. *)

type 'a t
(** Mutable heap of items of type ['a]. *)

val create : unit -> 'a t
(** An empty heap. *)

val size : 'a t -> int
(** Number of items currently stored. *)

val is_empty : 'a t -> bool
(** [size t = 0]. *)

val push : 'a t -> time:float -> 'a -> unit
(** [push t ~time x] inserts [x] with the given timestamp.
    @raise Invalid_argument if [time] is not finite. *)

val pop_payload : 'a t -> 'a option
(** Removes the earliest item and returns the payload cell as stored,
    without building a tuple or boxing the timestamp (the dispatch hot
    path). Read the timestamp first with {!peek_time_exn} if it is
    needed. The vacated slot is nulled, so a popped payload is
    collectable at once. *)

val peek_time_exn : 'a t -> float
(** Unboxed {!peek_time} for the dispatch hot path.
    @raise Invalid_argument when the heap is empty. *)
