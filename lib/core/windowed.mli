(** LoPC extended to non-blocking (windowed) requests — the §7 future
    work, in the spirit of Heidelberger & Trivedi's models of parallel
    programs with asynchronous tasks (the paper's reference [11]).

    Each thread may keep up to [window] requests outstanding: after
    issuing a request it continues with the next work quantum and only
    blocks when the window is full. [window = 1] is exactly the blocking
    model of §5 (and this module then agrees with {!All_to_all} to solver
    tolerance — see the tests).

    The model treats each node as [window] circulating "slots". A slot's
    cycle is: a work quantum [W] on the home thread (queueing behind the
    node's other slots, with handler preemption inflating each quantum by
    the BKT term), the two wire hops, a request handler at a random peer
    and the reply handler at home, both inflated by Bard queueing exactly
    as in §5. With per-node slot-completion rate [X]:

    {v
    u  = So·X                      (request = reply handler utilization)
    Qq, Qy                         (§5 closed forms evaluated at u)
    Rq = Qq / X     Ry = Qy / X    (Little)
    Sw = (W + So·Qq) / (1 − u)               (window 1: replies never
                                              preempt a blocked thread)
    Sw = (W + So·(Qq+Qy)) / (1 − 2u)         (window ≥ 2: both handler
                                              classes preempt)
    Rw = Sw / (1 − (window−1)/window · X·Sw)
                                   (Schweitzer queueing among own slots —
                                    zero for window 1)
    R  = Rw + 2·St + Rq + Ry       and X = window / R.
    v}

    The fixed point in [X] is bracketed by [0] and the node saturation
    rate and solved by bisection. Validated against the simulator's
    windowed mode within ~10% across window ∈ 1..8 (see
    [test_integration.ml]). *)

type solution = {
  window : int;
  r : float;            (** Latency of one slot cycle (work start →
                            reply completion). *)
  rw : float;           (** Residence at the home thread incl. queueing
                            behind the node's other slots. *)
  rq : float;           (** Request-handler residence at the server. *)
  ry : float;           (** Reply-handler residence at home. *)
  uq : float;           (** Handler utilization [So·X]. *)
  qq : float;           (** Request handlers present at a node. *)
  node_rate : float;    (** Slot completions per cycle per node,
                            [X = window / R]. *)
  throughput : float;   (** System rate, [P ·. X]. *)
  processor_util : float;  (** [X ·. (W + 2·So)]: fraction of the node's
                               processor consumed per unit time. *)
}

val solve : ?window:int -> Params.t -> w:float -> solution
(** [solve params ~w] solves the windowed homogeneous all-to-all model.
    [window] defaults to [1].
    @raise Invalid_argument if [window < 1] or [w < 0.]. *)

val saturation_rate : Params.t -> w:float -> float
(** The per-node rate ceiling [1 / (W + 2·So)]: each cycle consumes a full
    work quantum plus one request and one reply handler of the node's
    processor, no matter how large the window. *)
