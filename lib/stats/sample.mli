(** Whole-sample descriptive statistics and quantiles.

    Complements {!Welford} when the full sample fits in memory and exact
    order statistics are needed (confidence checks on simulator output). *)

type t
(** An immutable, sorted sample. *)

val of_array : float array -> t
(** [of_array a] copies and sorts [a] with [Float.compare] — the IEEE
    total order, which on the finite values accepted here coincides with
    numeric [<=] and is identical on every platform.
    @raise Invalid_argument if [a] is empty or contains non-finite
    values. *)

val of_list : float list -> t
(** List counterpart of {!of_array}. *)

val quantile : t -> float -> float
(** [quantile t q] is the [q]-th quantile, [0. <= q <= 1.], by linear
    interpolation between order statistics (type-7, the R default).
    @raise Invalid_argument if [q] is outside [\[0, 1\]]. *)

val median : t -> float
(** [quantile t 0.5]. *)

val min : t -> float
(** Smallest observation. *)

val max : t -> float
(** Largest observation. *)

val iqr : t -> float
(** Interquartile range, [quantile 0.75 − quantile 0.25]. *)
