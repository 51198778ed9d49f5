(** Measurements collected by a simulation run.

    Per-cycle observations map one-to-one onto the quantities of the LoPC
    model (paper Fig 4-3/4-4): for every completed compute/request cycle
    the simulator records the thread residence [Rw] (work plus preemption
    by handlers), total wire time, request-handler residence [Rq] (summed
    over hops: queueing plus service), reply-handler residence [Ry], and
    the full cycle time [R]. Node-level signals (utilizations and handler
    queue lengths) are time-averaged, matching the steady-state averages
    Little's law relates. *)

module Welford = Lopc_stats.Welford

type t = {
  mutable response : Welford.t;        (** Full cycle time [R]. *)
  mutable rw : Welford.t;              (** Thread residence [Rw]. *)
  mutable rq : Welford.t;              (** Request-handler residence [Rq], summed
                                   over hops. *)
  mutable ry : Welford.t;              (** Reply-handler residence [Ry]. *)
  mutable wire_time : Welford.t;       (** Total interconnect time per cycle. *)
  mutable latency : Welford.t;  (** Request latency: send instant to reply-handler
                                    completion. Equals [R − Rw] for blocking
                                    threads; the key metric for windowed
                                    (non-blocking) threads. *)
  mutable handler_service : Welford.t; (** Observed handler service samples (to
                                   cross-check mean and C²). *)
  mutable response_quantiles : (float * Lopc_stats.P2_quantile.t) list;
      (** Streaming percentile estimators for the cycle time, keyed by
          quantile; read through {!response_percentile}. *)
  mutable max_backlog : int;
      (** Read through {!max_handler_backlog}. *)
  mutable backlog_at_arrival : Welford.t;
      (** Read through {!arrival_backlog}. *)
  mutable cycles : int;        (** Completed measured cycles. *)
  mutable failed_cycles : int;
      (** Cycles abandoned after the fault layer's retry budget was
          exhausted (always [0] without faults). *)
  mutable request_sends : int;
      (** Request transmissions, including retransmits — the offered
          load's numerator. *)
  mutable retransmits : int;
      (** Timeout-triggered request retransmissions. *)
  mutable duplicate_deliveries : int;
      (** Request deliveries suppressed as duplicates by the handler-side
          sequence-number check (retransmitted or network-duplicated
          copies). Each still costs a full handler service. *)
  mutable stale_replies : int;
      (** Replies discarded at the origin because their cycle already
          completed or another copy was accepted first. *)
  mutable dropped_messages : int;
      (** Message copies lost to drop faults or crash windows. *)
  mutable tries_per_cycle : Welford.t;
      (** Tries needed per finished (answered or abandoned) cycle. *)
  mutable try_latency : Welford.t;
      (** Latency of the successful try: last (re)transmission to reply
          acceptance. *)
  mutable measure_start : float;  (** Simulation time when measurement
                                      began (after warm-up). *)
  mutable measure_end : float;    (** Simulation time of the last measured
                                      completion. *)
  request_queue : Lopc_stats.Time_average.t array;
      (** Per node: request handlers present (queued + in service) —
          the model's [Qq]. *)
  reply_queue : Lopc_stats.Time_average.t array;
      (** Per node: reply handlers present — the model's [Qy]. *)
  busy_request : Lopc_stats.Time_average.t array;
      (** Per node: 1 while a request handler is in service — [Uq]. *)
  busy_reply : Lopc_stats.Time_average.t array;
      (** Per node: 1 while a reply handler is in service — [Uy]. *)
  busy_thread : Lopc_stats.Time_average.t array;
      (** Per node: 1 while the compute thread is executing. *)
}

val create : nodes:int -> t
(** Fresh, empty metrics for a [nodes]-processor run. *)

val elapsed : t -> float
(** Measured interval length, [measure_end − measure_start]. *)

val throughput : t -> float
(** Completed cycles per unit time over the measured interval — the
    system throughput [X] (all threads combined); [nan] if nothing was
    measured. *)

val mean_response : t -> float
(** Mean cycle time [R]; [nan] when no cycles completed. *)

val goodput : t -> float
(** Successfully answered cycles per unit time — equals {!throughput}
    (which never counts abandoned cycles); [nan] if nothing was
    measured. *)

val offered_load : t -> float
(** Request sends (including retransmits) per unit time; with faults this
    exceeds {!goodput} by the retry inflation, without faults the two are
    equal. [nan] if nothing was measured. *)

val mean_tries : t -> float
(** Mean tries per finished cycle ([1.] without faults; [nan] when no
    cycles finished). *)

val avg_request_queue : t -> float
(** [Qq] averaged over nodes and time. *)

val avg_reply_queue : t -> float
(** [Qy] averaged over nodes and time. *)

val avg_request_util : t -> float
(** [Uq] averaged over nodes. *)

val avg_reply_util : t -> float
(** [Uy] averaged over nodes. *)

val avg_thread_util : t -> float
(** Thread execution fraction averaged over nodes. *)

val max_handler_backlog : t -> int
(** Largest number of messages simultaneously present (queued plus in
    service) at any node during measurement — a direct check of the
    paper's infinite-buffer assumption (§2): real machines like Alewife
    hold only a few messages in hardware. *)

val arrival_backlog : t -> Welford.t
(** Queue length observed by arriving messages (excluding themselves) —
    the quantity Bard's approximation equates with the steady-state
    queue length. Compare with {!avg_request_queue} [+]
    {!avg_reply_queue} to measure the approximation's error directly. *)

val response_percentile : t -> float -> float
(** [response_percentile t q] is a streaming P² estimate of the [q]-th
    percentile of the cycle time, for [q ∈ {0.5, 0.9, 0.95, 0.99}];
    @raise Invalid_argument for other [q] (estimators are maintained only
    for those four). [nan] when no cycles completed. *)

val reset_at : t -> now:float -> unit
(** Drop all accumulated statistics and restart measurement at [now] —
    called once at the end of warm-up. *)
