(** The active-message machine simulator.

    Executes a {!Spec.t} as a discrete-event simulation over one
    {!Lopc_eventsim.Event_heap} and returns {!Metrics.t}. The simulation
    follows paper §2 exactly:

    - the interconnect is contention free — every hop takes an
      independent draw from the wire distribution, regardless of load;
    - per-node message queues are unbounded FIFOs;
    - handlers are atomic and run at higher priority than the compute
      thread; in message-passing mode an arriving message preempts the
      thread (preempt-resume), in protocol-processor mode handlers run on
      a separate per-node resource and the thread is never disturbed;
    - a blocked thread resumes only when its reply handler has completed
      {e and} the handler queue has drained (queued handlers have
      priority, §5.1).

    Runs are deterministic functions of [seed] (or of the supplied [rng]
    stream). The entry points are re-entrant: all simulation state lives in
    the machine value built per call, so independent replications may run
    concurrently on separate domains as long as each gets its own stream. *)

type result = {
  metrics : Metrics.t;   (** Post-warm-up measurements. *)
  final_time : float;    (** Simulation clock at termination. *)
  events : int;          (** Total events executed (including warm-up). *)
  interrupted : Lopc_robust.Budget.stop_reason option;
      (** [Some reason] when a [budget] stopped the run before its cycle
          target; the metrics then cover only the cycles completed so
          far. [None] for a run that reached its target (or that was
          given no budget). *)
}

type cycle_report = {
  origin : int;           (** Node whose thread ran the cycle. *)
  started : float;        (** Work began (after the previous reply). *)
  sent : float;           (** Request issued. *)
  completed : float;      (** Reply handler finished. *)
  request_residence : float;  (** [Rq], summed over hops. *)
  reply_residence : float;    (** [Ry]. *)
  wire : float;           (** Total interconnect time. *)
  measured : bool;        (** Whether the cycle fell inside the
                              measurement window. *)
}
(** One completed compute/request cycle, as delivered to [on_cycle]
    observers — the raw material for traces and custom statistics. *)

val run :
  ?seed:int ->
  ?rng:Lopc_prng.Rng.t ->
  ?warmup_cycles:int ->
  ?on_cycle:(cycle_report -> unit) ->
  ?obs:Lopc_obs.Sim_probe.t ->
  ?budget:Lopc_robust.Budget.t ->
  spec:Spec.t ->
  cycles:int ->
  unit ->
  result
(** [run ~spec ~cycles ()] simulates until [cycles] compute/request cycles
    have completed after warm-up (counted across all threads).
    [warmup_cycles] (default [max 1000 (cycles/10)]) completions are
    discarded first. [seed] defaults to [42]; when [rng] is given it is
    used as the master stream instead (the caller typically passes a
    {!Lopc_prng.Rng.split} child keyed on its replication index, so
    parallel replications stay deterministic). A run that executes more
    than 200M events raises: that is the runaway guard.

    When [obs] is given, the machine feeds it every observable
    transition — thread start/stop, handler begin/end, queue-depth
    changes, cycle completions, fault events, periodic engine samples —
    timestamped with the simulation clock only, and closes any open
    spans at termination ({!Lopc_obs.Sim_probe.finish}). The probe is
    pure instrumentation: it draws no randomness and schedules nothing,
    so a run's results are bit-identical with and without it.

    [budget] is consulted once per event (warm-up included, one unit of
    fuel each); when it stops the run, the result comes back gracefully
    with [interrupted = Some reason] and whatever metrics accumulated —
    in contrast to the hard 200M-event guard, which raises. A
    cancellation is observed within one event of the token flip. Fuel is
    simulation progress, so budgeted runs remain deterministic.
    @raise Invalid_argument if the spec fails {!Spec.validate}, no node
    runs a thread, a route ever returns an empty list or an out-of-range
    node, or [cycles <= 0]. *)
