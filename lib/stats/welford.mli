(** Numerically stable streaming moments (Welford's algorithm).

    Accumulates count, mean and variance of a stream of
    observations in O(1) space without catastrophic cancellation. Used by
    the simulator for per-cycle response-time statistics. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** An empty accumulator. *)

val add : t -> float -> unit
(** [add t x] folds the observation [x] into [t]. Non-finite observations
    raise [Invalid_argument] — they always indicate an instrumentation
    bug. *)

val mean : t -> float
(** Sample mean; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance (divisor n−1); [0.] with fewer than two
    observations. *)

val stddev : t -> float
(** [sqrt (variance t)]. *)

val confidence_interval : t -> float
(** Half-width of the ~95% confidence interval on the mean assuming
    approximate normality ([1.96 · stddev / sqrt count]); [nan] with fewer
    than two observations. *)
