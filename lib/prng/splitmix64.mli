(** SplitMix64 pseudo-random number generator.

    A small, fast, well-mixed 64-bit generator (Steele, Lea & Flood, 2014).
    Its role in this library is seeding the larger-state {!Xoshiro256}
    from a single 64-bit seed.

    The generator is deterministic: the same seed always yields the same
    sequence on every platform. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator initialised with [seed]. Any
    seed value is acceptable, including [0L]. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)
