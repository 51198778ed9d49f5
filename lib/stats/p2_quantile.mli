(** Streaming quantile estimation with the P² algorithm
    (Jain & Chlamtac, 1985).

    Estimates a single quantile of a stream in O(1) space by maintaining
    five markers whose heights are adjusted with piecewise-parabolic
    interpolation. Used to watch tail response times (e.g. the 95th
    percentile cycle time) during long simulations without storing the
    sample. *)

type t
(** Mutable estimator for one quantile. *)

val create : q:float -> t
(** [create ~q] estimates the [q]-th quantile, [0. < q < 1.].
    @raise Invalid_argument otherwise. *)

val add : t -> float -> unit
(** Fold one observation. @raise Invalid_argument on non-finite input. *)

val estimate : t -> float
(** Current quantile estimate. Exact while fewer than five observations
    have been seen (computed from the sorted sample); [nan] when empty. *)
