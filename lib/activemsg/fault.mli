(** Fault injection for the active-message simulator.

    The paper's machine model (§2) assumes a perfectly reliable,
    contention-free interconnect. For the NOW setting LoPC also claims,
    messages are dropped, duplicated and delayed, and the runtime recovers
    with timeout + retransmission. This module describes that failure
    layer; {!Machine} injects it deterministically from PRNG streams split
    off {e after} the per-node streams, so

    - the same seed replays the same faulty execution bit-for-bit, and
    - a fault config with zero probabilities (and a timeout longer than
      any round trip) is bit-identical to running with no faults at all.

    Faulty specs are restricted to blocking threads ([window = 1]),
    single-hop routes and the contention-free interconnect
    ([topology = None]); {!Spec.validate} and {!Machine} enforce this. *)

module Distribution = Lopc_dist.Distribution
module Rng = Lopc_prng.Rng

type backoff =
  | Fixed  (** Every retry waits the base timeout. *)
  | Exponential of { factor : float; cap : float }
      (** Try [n] waits [timeout ·. min cap (factor^(n−1))]. *)
  | Jittered of { spread : float }
      (** Try [n] waits [timeout] scaled by a uniform draw from
          [[1 − spread, 1 + spread]] (mean multiplier 1). *)

type t = {
  drop : float;
      (** Per-traversal loss probability in [0, 1), applied independently
          to every request and reply copy. *)
  duplicate : float;
      (** Probability in [0, 1] that the network delivers a second copy of
          a message (the copy is subject to [drop] and delay spikes but is
          not itself re-duplicated). *)
  delay_epsilon : float;
      (** Weight in [0, 1] of the delay-spike mixture: with this
          probability a traversal samples its wire time from
          [delay_spike] instead of the spec's wire distribution. *)
  delay_spike : Distribution.t;  (** Second wire distribution (the spike). *)
  timeout : float;     (** Base retransmission timeout (> 0). *)
  backoff : backoff;   (** Retry schedule. *)
  max_tries : int;
      (** Retry budget (≥ 1): after this many unanswered tries the cycle
          is abandoned and counted in [Metrics.failed_cycles]. *)
}

val create :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_epsilon:float ->
  ?delay_spike:Distribution.t ->
  ?backoff:backoff ->
  ?max_tries:int ->
  timeout:float ->
  unit ->
  t
(** Fault config with all injection turned off by default: [drop],
    [duplicate] and [delay_epsilon] default to [0.], [backoff] to
    {!Fixed}, [max_tries] to [8]. *)

val validate : t -> (t, string) result
(** Checks every field against the ranges documented above. Called from
    {!Spec.validate}. *)

val timeout_multiplier : t -> try_:int -> float
(** Deterministic timeout multiplier of the [try_]-th attempt (1-based):
    [1.] for {!Fixed}, [min cap (factor^(n−1))] for {!Exponential}, and
    the mean multiplier [1.] for {!Jittered}. This is what the analytical
    companion ([Lopc.Fault_model]) consumes as its backoff schedule. *)

val mean_timeout : t -> try_:int -> float
(** [timeout ·. timeout_multiplier]. *)

val timeout_for : t -> try_:int -> Rng.t -> float
(** Actual timeout for an attempt; samples the jitter factor from [rng]
    (a fault stream, never a node stream) for {!Jittered}. *)
