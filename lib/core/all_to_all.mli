(** LoPC for homogeneous all-to-all communication (paper §5).

    Every one of the [P] nodes runs a thread that alternates [W] cycles of
    local work with a blocking request to a uniformly random peer. By
    homogeneity the per-node equations ({!Contention}) collapse to one
    scalar fixed point in the cycle time [R] (Eqs 4.1, 5.1–5.10):

    {v
    s  = So / R                          (per-node handler throughput × So)
    β  = (C² − 1) / 2
    Qq = s · (1 + (1+2β)·s + β·s²) / (1 − s − s²)
    Qy = s · (1 + Qq + β·s)
    Rq = Qq · R        Ry = Qy · R
    Rw = (W + So·Qq) / (1 − s)           (message passing; W with a
                                          protocol processor, §5.1)
    R  = Rw + 2·St + Rq + Ry
    v}

    {!solve_status} finds [R] by bracketing [F R − R] above the
    contention-free bound ({!Lopc_numerics.Fixed_point.solve_above_status}).
    §5.3 notes the system is a quartic in [R]; {!quartic} constructs that
    polynomial explicitly. The [ablate.solvers] artifact and the tests
    check that its smallest root at or above the bound, and a damped
    iteration of [F], agree with the bracketed answer. *)

type solution = {
  r : float;           (** Cycle time [R] including contention. *)
  rw : float;          (** Thread residence [Rw]. *)
  rq : float;          (** Request-handler residence [Rq]. *)
  ry : float;          (** Reply-handler residence [Ry]. *)
  qq : float;          (** Request handlers at a node, [Qq]. *)
  qy : float;          (** Reply handlers at a node, [Qy]. *)
  uq : float [@lopc.prob];  (** Utilization by request handlers, [Uq]. *)
  uy : float [@lopc.prob];  (** Utilization by reply handlers, [Uy]. *)
  throughput : float;  (** System throughput [X = P / R]. *)
  contention : float;  (** [R] minus the contention-free LogP cycle. *)
}

type execution =
  | Interrupt
      (** The paper's default machine: handlers interrupt the compute
          thread (preempt-resume), Eq 5.7. *)
  | Polling
      (** LogP's CM-5-style assumption (§3): handlers run only when the
          thread yields — at request-issue points and while blocked. The
          thread is never preempted ([Rw = W]) but every handler first
          waits out the residual work quantum of a busy thread. Work is
          exponential ([C²w = 1]), so the mean residual quantum is [W]
          and the wait adds [Uw ·. W] to [Rq] and [Ry]. *)
  | Protocol_processor
      (** Shared-memory machines (§5.1): handlers execute on a dedicated
          per-node protocol processor; [Rw = W] and handlers queue only
          against each other. *)

type terms = {
  rw : float;
  rq : float;
  ry : float;
  qq : float;
  qy : float;
  uq : float [@lopc.prob];
  uy : float [@lopc.prob];
}
(** The per-node terms of Eq 4.1 at one candidate cycle time. *)

val terms : execution:execution -> load:float -> Params.t -> w:float -> float -> terms
(** [terms ~execution ~load params ~w r] evaluates the {!Contention}
    equations at cycle time [r] when a node serves [load] request handlers
    per cycle ([1.] here; {!Fault_model} passes its retry-inflated load):
    [Uq = load·So/R], [Uy = So/R] and the per-visit [Rq = Qq·R/load]
    (Little). Requires [r] above the saturation floor. *)

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  ?execution:execution ->
  Params.t ->
  w:float ->
  solution option * Lopc_numerics.Fixed_point.status
(** [solve_status params ~w] solves the homogeneous model and reports a
    structured outcome. [execution] defaults to [Interrupt]. The
    [Converged] iteration count is the number of evaluations of [F]. The
    reliable model never reports [Saturated] — its saturation floor lies
    strictly below the contention-free cycle time (see {!Fault_model}
    for a model that can).

    [budget] is consulted once per evaluation of [F]; when it stops the
    run the outcome is [(None, Exhausted _)].
    @raise Invalid_argument if [w < 0.] or parameters are invalid. *)

val solve :
  ?execution:execution ->
  Params.t ->
  w:float ->
  solution
(** [solve] is {!solve_status} through
    {!Lopc_numerics.Fixed_point.get_exn}, kept for the benchmark
    harness; new code calls {!solve_status}.
    @raise Invalid_argument as {!solve_status}.
    @raise Lopc_numerics.Fixed_point.Unsolved on any non-converged
    outcome. *)

val fixed_point_map : ?execution:execution -> Params.t -> w:float -> float -> float
(** [fixed_point_map params ~w r] is the map [F] whose fixed point is the
    cycle time — exposed for the bound proofs and property tests ([F] is
    continuous and decreasing above the contention-free cycle time). *)

val quartic : ?execution:execution -> Params.t -> w:float -> Lopc_numerics.Polynomial.t
(** The cleared-denominator polynomial whose relevant real root is the
    cycle time (degree ≤ 5 before trimming; degree 4 in the paper's
    [C² = 0] message-passing case after cancellation). *)

val lower_bound : Params.t -> w:float -> float
(** Contention-free cost, [W + 2·St + 2·So] (Eq 5.12 left). *)

val upper_bound : Params.t -> w:float -> float
(** [W + 2·St + k·So] with [k] from {!rule_of_thumb_constant}
    (Eq 5.12 right: [k = 3.46] when [C² = 0]). *)

val rule_of_thumb_constant : c2:float -> float
(** The constant [k] such that [R* < W + 2·St + k·So] for all [W, St]:
    the normalized solution at [W = 0], [St = 0], [So = 1] where
    contention is maximal. [k ≈ 3.46] for [C² = 0], growing with [C²]. *)

val contention_fraction : Params.t -> w:float -> float
(** Fraction of the cycle time spent on contention,
    [(R − lower_bound) / R] — the y-axis of Fig 5-1. *)

val total_runtime : ?execution:execution -> Params.t -> Params.algorithm -> float
(** [n ·. R]: predicted application run time (§4). *)
