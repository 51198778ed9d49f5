(** Unified random-number interface used throughout the library.

    Wraps {!Xoshiro256} (seeded via {!Splitmix64}) behind the sampling
    primitives the simulator and distribution library need. Every stream is
    deterministic in its seed, and {!split} produces statistically
    independent, non-overlapping child streams, so whole experiments are
    reproducible from a single integer seed. *)

type t
(** A mutable random stream. *)

val create : int -> t
(** [create seed] returns a fresh stream determined entirely by [seed]. *)

val split : t -> t
(** [split t] returns a new stream independent of the future output of
    [t]. Internally the child takes a copy of [t]'s state jumped ahead by
    2^128 steps and [t] itself is jumped once more, so parent and child
    never overlap. *)

val split_n : t -> int -> t array
(** [split_n t n] returns [n] pairwise-independent streams.
    @raise Invalid_argument if [n < 0]. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [\[0, 1)]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform on [\[lo, hi)].
    @raise Invalid_argument if [lo > hi] or either bound is not finite. *)

val int_below : t -> int -> int
(** [int_below t bound] is uniform on [\[0, bound)], free of modulo bias.
    @raise Invalid_argument if [bound <= 0]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].
    @raise Invalid_argument if [p] is outside [\[0, 1\]]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from the exponential distribution with the
    given mean (not rate). @raise Invalid_argument if [mean <= 0]. *)
