(** Analytical companion of the simulator's fault layer
    ({!Lopc_activemsg.Fault}): the homogeneous all-to-all model of §5
    extended with message loss, duplication, delay spikes, and the
    timeout–retransmit recovery protocol.

    With per-traversal drop rate ℓ the expected tries per request is the
    paper-style retry inflation 1/(1−q) (q the per-try round-trip failure,
    truncated at the retry budget), which inflates the request-handler
    demand seen by the AMVA station by [handler_load] deliveries per cycle
    — retransmitted and duplicated copies are handled at full cost even
    though the sequence-number check suppresses their effect. The cycle
    time solved for is

    {[ R = Rw + E_wait + 2·St_eff + Rq + Ry ]}

    where [E_wait] is the expected timeout waiting of the failed tries,
    [St_eff] the ε-mixture wire mean, and [Rw], [Rq], [Ry] are
    {!All_to_all.terms} at request load [kq = handler_load]: the shared
    {!Contention} kernel with request-handler utilization [kq·So/R] and
    reply-handler utilization [So/R]. At zero fault probabilities every
    quantity reduces exactly to {!All_to_all.solve_status}.

    Validity: interrupt-notification blocking threads (the restrictions
    {!Lopc_activemsg.Spec.validate} enforces on faulty specs), and a
    timeout comfortably above the typical round trip — the model charges
    every failed try its full backoff and assumes no spurious
    retransmissions. *)

type config = {
  drop : float [@lopc.prob];
      (** Per-traversal loss probability ℓ ∈ [0, 1). *)
  duplicate : float [@lopc.prob];
      (** Per-traversal duplication probability ∈ [0, 1]. *)
  delay_epsilon : float [@lopc.prob];
      (** Delay-spike mixture weight ε ∈ [0, 1]. *)
  spike_mean : float [@lopc.cost];
      (** Mean of the spike wire distribution. *)
  timeout : float [@lopc.cost] [@lopc.unit "cycles"];
      (** Base retransmission timeout T > 0. *)
  backoff : int -> float;
      (** Timeout multiplier of the n-th try (1-based, ≥ 1) — pass
          [Lopc_activemsg.Fault.timeout_multiplier] to mirror a simulator
          config (jittered backoff has mean multiplier 1). *)
  max_tries : int;        (** Retry budget B ≥ 1. *)
}

val config :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_epsilon:float ->
  ?spike_mean:float ->
  ?backoff:(int -> float) ->
  ?max_tries:int ->
  timeout:float ->
  unit ->
  config
(** Constructor with all fault probabilities defaulted to [0.], constant
    backoff, and [max_tries = 8]. *)

val validate : config -> (config, string) result

val per_try_failure : config -> float
(** q: probability a single try gets no answer — both directions must
    deliver at least one copy. [1 − (1−ℓ)²] without duplication. *)

val expected_tries : config -> float
(** E[tries per cycle] [= (1 − q^B)/(1 − q)] — the retry inflation. *)

val failure_probability : config -> float
(** [q^B]: predicted fraction of cycles abandoned with the budget
    exhausted. *)

val handler_load : config -> float
(** Request-handler deliveries per cycle,
    [expected_tries · (1−ℓ)(1+d)] — the demand inflation fed to the
    request station. *)

val effective_wire : config -> Params.t -> float
(** [St_eff = (1−ε)·St + ε·spike_mean]. *)

val expected_timeout_wait : config -> float
(** [E_wait]: expected total backoff waiting per (eventually answered)
    cycle, [Σ_{j<B} T(j)·(q^j − q^B)/(1 − q^B)]. *)

type solution = {
  r : float;             (** Cycle time of answered cycles. *)
  terms : All_to_all.terms;
      (** Rw, Rq (of the successful try), Ry, the queues and the
          utilizations, with [Uq] inflated by {!handler_load}. *)
  throughput : float;    (** Goodput [P/R] (failure rate assumed small). *)
  tries : float;         (** {!expected_tries}. *)
  timeout_wait : float;  (** {!expected_timeout_wait}. *)
  load : float;          (** {!handler_load}. *)
  failure_rate : float;  (** {!failure_probability}. *)
}

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  config -> Params.t -> w:float -> solution option * Lopc_numerics.Fixed_point.status
(** Solve the faulty fixed point. Returns [Saturated] (with the inflated
    request utilization at the saturation floor) when the retry-inflated
    handler demand admits no stable cycle time, [Diverged] if root
    bracketing fails (residual [|F R − R|] at the bracket start),
    [Exhausted] when [budget] (consulted once per map evaluation) stops
    the search; [iters] counts map evaluations.
    @raise Invalid_argument on invalid [config], [params] or [w]. *)

val solve : config -> Params.t -> w:float -> solution
(** [solve] is {!solve_status} through
    {!Lopc_numerics.Fixed_point.get_exn}, kept for the benchmark
    harness; new code calls {!solve_status}.
    @raise Lopc_numerics.Fixed_point.Unsolved when no solution exists. *)
