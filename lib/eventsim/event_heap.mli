(** Binary min-heap of timestamped events with stable FIFO tie-breaking
    and O(log n) cancellation.

    The event queue of the simulator: {!pop_exn} always removes the entry
    with the smallest timestamp, and among equal timestamps the one pushed
    first. This determinism matters — the simulator's results must be a
    pure function of its seed, and the paper's constant-service
    configurations produce many simultaneous events.

    The entry order is the explicit monomorphic comparison
    [time ascending, then seq ascending] — a total order defined in one
    place, with no dependence on the polymorphic compare runtime. [push]
    rejects non-finite timestamps, so NaN never enters the order.

    An entry is a timestamp, an int [kind] and a payload. The kind lets a
    caller encode what the event does (and for whom) in an immediate, so a
    dispatcher can [match] on it instead of storing a closure per event.

    Cancellation is eager: {!cancel} removes the entry at once, so
    {!size} counts live entries only and a cancelled timer costs no heap
    depth while it would otherwise wait to expire.

    Internally the heap is struct-of-arrays: each heap position holds a
    timestamp, a sequence number and the index of a payload slot, all in
    flat unboxed arrays, and each kind and payload is written once into
    its slot. A hole-based sift therefore moves only floats and ints,
    touches no heap block and never runs the write barrier. {!push} and
    {!pop_exn} allocate nothing, and a vacated slot is reset to the
    heap's [dummy], so a removed payload is collectable at once. *)

type 'a t
(** Mutable heap of entries with payloads of type ['a]. *)

type handle = private int
(** Names one pushed entry: its slot and a generation taken from the
    entry's sequence number, so a handle whose entry already left the
    heap never matches the slot's later occupants (the generation repeats
    only after 2{^32} further pushes). An immediate: storing one never
    allocates. *)

val no_handle : handle
(** A handle that names no entry; cancelling it is a no-op. *)

val create : dummy:'a -> 'a t
(** An empty heap. [dummy] fills free payload slots; it is never
    returned. *)

val size : 'a t -> int
(** Number of live entries. *)

val is_empty : 'a t -> bool
(** [size t = 0]. *)

val push : 'a t -> time:float -> kind:int -> 'a -> handle
(** [push t ~time ~kind x] inserts [x] with the given timestamp and kind.
    @raise Invalid_argument if [time] is not finite. *)

val cancel : 'a t -> handle -> unit
(** Removes the entry [handle] names, with one sift. A no-op if that
    entry was already popped or cancelled, even after its slot was
    reused. *)

val peek_time_exn : 'a t -> float
(** Timestamp of the earliest entry (read it before {!pop_exn} when it is
    needed).
    @raise Invalid_argument when the heap is empty. *)

val pop_exn : 'a t -> 'a
(** Removes the earliest entry and returns its payload; its kind is then
    {!popped_kind}. No tuple is built and no timestamp is boxed.
    @raise Invalid_argument when the heap is empty. *)

val popped_kind : 'a t -> int
(** Kind of the entry the last {!pop_exn} removed ([0] before any pop). *)
