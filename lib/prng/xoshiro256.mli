(** xoshiro256++ pseudo-random number generator.

    The workhorse generator of this library (Blackman & Vigna, 2019):
    256 bits of state, period 2^256 − 1, excellent statistical quality and
    a cheap [jump] function that advances the state by 2^128 steps, which
    we use to derive provably non-overlapping parallel streams. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] initialises the 256-bit state from [seed] by running a
    {!Splitmix64} generator, as recommended by the xoshiro authors. *)

val copy : t -> t
(** [copy t] is an independent generator with the same future sequence. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val next_float : t -> float
(** [next_float t] is a float uniformly distributed in [\[0, 1)]. *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps of [next] in O(1) word operations.
    Calling [jump] on successive copies yields non-overlapping streams of
    length 2^128 each. *)
