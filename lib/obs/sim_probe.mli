(** Simulator-facing observability probe.

    One [Sim_probe.t] rides along a [Machine.run]: the simulator calls
    the transition functions below at its event hooks, and the probe
    turns each transition into span/instant/counter records on a
    {!Recorder}.

    Track layout: node [i] owns track [2i] (thread work spans [W],
    cycle and fault instants) and track [2i+1] (handler service spans
    [Rq]/[Ry], the [queue] depth counter); track [2·nodes] carries the
    engine's own counters. Two tracks per node because a protocol
    processor lets the thread compute while a handler is in service —
    on separate tracks, no span ever overlaps itself, so begin/end
    records are well nested per track ([W] never self-overlaps; the
    machine serializes handlers per node). {!finish} closes any spans
    still open at termination, making every recording balanced. *)

type t

val create : recorder:Recorder.t -> nodes:int -> unit -> t
(** A probe for a machine of [nodes] nodes, recording on [recorder].
    @raise Invalid_argument if [nodes < 1]. *)

(** {1 Simulator-facing transitions}

    All timestamps are the engine clock and must be non-decreasing. *)

val thread_running : t -> node:int -> now:float -> bool -> unit
(** The node's compute thread started ([true]) or stopped ([false])
    running. Opens/closes a [W] span; repeated same-state calls are
    ignored. *)

val handler_begin : t -> node:int -> now:float -> reply:bool -> unit
(** A message handler began service on the node: a reply handler
    ([Ry] span) or a request handler ([Rq] span). *)

val handler_end : t -> node:int -> now:float -> reply:bool -> unit
(** The handler finished; closes the matching span. *)

val queue_depth : t -> node:int -> now:float -> int -> unit
(** The node's handler backlog (queued messages plus the one in
    service) changed to [depth]. *)

val cycle_completed :
  t -> node:int -> now:float ->
  rw:float -> wire:float -> rq:float -> ry:float -> total:float -> unit
(** A request/reply cycle completed on the node: an instant event
    carrying the per-phase breakdown (compute-side wait [rw], wire
    time, request service [rq], reply service [ry], end-to-end
    [total]). *)

val fault_event : ?value:float -> t -> node:int -> now:float -> string -> unit
(** A fault-layer event ([drop], [duplicate], [stale], [retransmit],
    [giveup]) as an instant on the node's track, with an optional
    numeric payload (e.g. the retry count). *)

val engine_sample : t -> now:float -> heap:int -> executed:int -> unit
(** Periodic engine health sample: pending-event heap size and events
    executed, as counters on the synthetic engine track (index
    [nodes]). *)

val finish : t -> now:float -> unit
(** Close any spans still open (in-flight work or handler service at
    termination). Call once, after the run. Idempotent. *)
