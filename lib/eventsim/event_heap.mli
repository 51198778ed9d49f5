(** Event queue of timestamped entries: a binary min-heap with O(log n)
    cancellation, plus FIFO lanes for entries that arrive in time order,
    with stable FIFO tie-breaking across both.

    The event queue of the simulator: {!pop_exn} always removes the entry
    with the smallest timestamp, and among equal timestamps the one pushed
    first, whether it sits in the heap or in a lane. This determinism
    matters — the simulator's results must be a pure function of its
    seed, and the paper's constant-service configurations produce many
    simultaneous events.

    The entry order is the explicit monomorphic comparison
    [time ascending, then seq ascending] — a total order defined in one
    place, with no dependence on the polymorphic compare runtime. [push]
    rejects non-finite timestamps, so NaN never enters the order.

    An entry is a timestamp, an int [kind] and an int payload. The kind
    lets a caller encode what the event does (and for whom) in an
    immediate, so a dispatcher can [match] on it instead of storing a
    closure per event; the payload names whatever else the event
    concerns, an index into a table the caller keeps (a message in the
    simulator's pool, a closure in {!Engine}'s slot table).

    Payloads are ints because of the write barrier: every store of a
    pointer into an array runs [caml_modify] (about 3.5 ns on a 2-core
    x86-64 host), and a pointer payload would be stored on each push and
    reset on each pop so the popped value could be collected. An int
    array is written with plain stores and keeps nothing alive, so
    {!push} and {!pop_exn} run no barrier and allocate nothing.

    Cancellation is eager: {!cancel} removes the entry at once, so
    {!size} counts live entries only and a cancelled timer costs no heap
    depth while it would otherwise wait to expire.

    Internally the heap is struct-of-arrays: each heap position holds a
    timestamp, a sequence number and the index of a payload slot, all in
    flat unboxed arrays, and each kind and payload is written once into
    its slot. A hole-based sift therefore moves only floats and ints and
    touches no heap block.

    A lane ({!new_lane}, {!push_lane}) is a FIFO ring beside the heap for
    a stream of entries whose timestamps never decrease, such as events
    scheduled a constant delay after a nondecreasing clock. A lane push
    and a lane pop are O(1) and never sift. Lane entries take their
    sequence numbers from the same counter as heap entries, so
    {!pop_exn}, which compares the heap root with each lane's head, gives
    exactly the order a heap holding every entry would give. One pop
    scans the lane heads once: it returns the payload and leaves the
    entry's time for {!popped_time} and its kind for {!popped_kind}, so
    a caller never peeks first. Lane entries cannot be cancelled.
    {!size} and {!is_empty} count them. *)

type t
(** Mutable heap of entries with int payloads. *)

type handle = private int
(** Names one pushed entry: its slot and a generation taken from the
    entry's sequence number, so a handle whose entry already left the
    heap never matches the slot's later occupants (the generation repeats
    only after 2{^32} further pushes). An immediate: storing one never
    allocates. *)

val no_handle : handle
(** A handle that names no entry; cancelling it is a no-op. *)

val create : unit -> t
(** An empty heap. *)

val size : t -> int
(** Number of live entries, lane entries included. *)

val is_empty : t -> bool
(** [size t = 0]. *)

val push : t -> time:float -> kind:int -> int -> handle
(** [push t ~time ~kind x] inserts [x] with the given timestamp and kind.
    @raise Invalid_argument if [time] is not finite. *)

val cancel : t -> handle -> unit
(** Removes the entry [handle] names, with one sift. A no-op if that
    entry was already popped or cancelled, even after its slot was
    reused. *)

type lane = private int
(** Names one lane of the heap that made it. *)

val new_lane : t -> lane
(** Adds an empty lane. A caller makes a handful, once, before it runs:
    each pop compares the head of every lane. *)

val push_lane : t -> lane -> time:float -> kind:int -> int -> unit
(** [push_lane t lane ~time ~kind x] appends [x] to [lane]; it pops in
    the same place among all entries as {!push} with the same arguments
    would put it. There is no handle: a lane entry cannot be cancelled.
    @raise Invalid_argument if [time] is not finite, or is earlier than
    the timestamp of the lane's last entry still pending. *)

val pop_exn : t -> int
(** Removes the earliest entry and returns its payload; its time is then
    {!popped_time} and its kind {!popped_kind}, so no tuple is built.
    @raise Invalid_argument when the heap is empty. *)

val popped_time : t -> float
(** Timestamp of the entry the last {!pop_exn} removed ([0.] before any
    pop). *)

val popped_kind : t -> int
(** Kind of the entry the last {!pop_exn} removed ([0] before any pop). *)
