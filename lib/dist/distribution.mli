(** Non-negative service-time distributions.

    The LoPC model characterizes a service time by its mean and its squared
    coefficient of variation [C² = Var/mean²] (paper §3, §5.2). This module
    provides distributions with exactly known mean and [C²] so that the
    event-driven simulator can be driven by the same two numbers the
    analytical model consumes.

    All distributions here are supported on [\[0, ∞)] and have finite first
    and second moments. *)

type t =
  | Constant of float
      (** [Constant c]: always [c]. [C² = 0]. Models the paper's "short
          instruction streams with low variability" handlers. *)
  | Exponential of float
      (** [Exponential mean]: [C² = 1]. The default LoPC assumption. *)
  | Uniform of float * float
      (** [Uniform (lo, hi)]: uniform on [\[lo, hi\]], [0 <= lo <= hi]. *)
  | Erlang of int * float
      (** [Erlang (k, mean)]: sum of [k] iid exponentials with total mean
          [mean]. [C² = 1/k]. *)
  | Hyperexponential of float * float * float
      (** [Hyperexponential (p, mean1, mean2)]: with probability [p] draw
          from [Exponential mean1], else from [Exponential mean2].
          [C² >= 1]. *)
  | Shifted_exponential of float * float
      (** [Shifted_exponential (offset, mean)]: [offset] plus an
          exponential such that the total mean is [mean]
          ([offset <= mean]). Covers any [C²] in [(0, 1\]]. *)
  | Empirical of float array
      (** [Empirical samples]: resample uniformly from measured values
          (e.g. handler timings captured on real hardware). All samples
          must be finite and non-negative; the array must be
          non-empty. *)

val mean : t -> float
(** Exact mean. *)

val sample : t -> Lopc_prng.Rng.t -> float
(** [sample t rng] draws one value. The result is always [>= 0.]. *)

val of_mean_scv : mean:float -> scv:float -> t
(** [of_mean_scv ~mean ~scv] builds a distribution with exactly the given
    mean and squared coefficient of variation:
    - [scv = 0.] → {!Constant};
    - [0 < scv < 1] → {!Shifted_exponential};
    - [scv = 1.] → {!Exponential};
    - [scv > 1.] → balanced-means two-phase {!Hyperexponential}.
    @raise Invalid_argument unless [mean] and [scv] are finite and
    [>= 0.]. *)

val validate : t -> (t, string) result
(** [validate t] is [Ok t] when the parameters are finite and satisfy
    the invariants documented on each constructor, and [Error reason]
    otherwise. {!sample} checks its argument on every draw, without
    allocating, and raises [Invalid_argument ("Distribution: " ^ reason)]
    on an invalid one. *)
