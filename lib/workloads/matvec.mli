(** The matrix-vector multiply of paper §3.

    An [N × N] matrix [A] is cyclically distributed over [P] processors
    (row [i] on processor [i mod P]); the input vector [x] is replicated.
    Each processor computes the [N/P] dot products for its rows; every
    result element [y_i] is then sent to each of the other [P − 1]
    processors with a blocking [put] (value + address; the remote handler
    stores and acknowledges).

    Per node this is [m = (N/P)·N] multiply-adds and
    [n = (N/P)·(P−1)] puts, so the LoPC work parameter is
    [W = m/n ·. madd = N/(P−1) ·. madd]. *)

type t = {
  matrix_dim : int;  (** [N]; must be a positive multiple of [p]. *)
  p : int;           (** Processor count. *)
  madd_cost : float; (** Cycles per multiply-add. *)
}

val create : matrix_dim:int -> p:int -> madd_cost:float -> t
(** @raise Invalid_argument if [p < 2], [matrix_dim] is not a positive
    multiple of [p], or [madd_cost <= 0.]. *)

val messages_per_node : t -> int
(** [n = (N/P)·(P−1)]. *)

val work_between_requests : t -> float
(** [W = N/(P−1) ·. madd_cost]. *)

val characterize : t -> Lopc.Params.algorithm
(** The [(n, W)] pair consumed by the LoPC and LogP analyses. *)

val lopc_runtime : Lopc.Params.t -> t -> float
(** Predicted total run time under LoPC (all-to-all contention model).
    @raise Invalid_argument if the parameter [P] differs from [t.p]. *)

val logp_runtime : Lopc.Params.t -> t -> float
(** Contention-free LogP prediction for comparison. *)
