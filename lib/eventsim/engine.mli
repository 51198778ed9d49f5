(** Discrete-event simulation engine.

    Wraps one {!Event_heap} with a simulation clock, callback scheduling
    and O(1) lazy cancellation. Events execute in [(time, seq)] order, so
    simultaneous events run in the order they were scheduled and a run is
    a pure function of its inputs. Time never moves backwards;
    scheduling into the past is a programming error and raises. Handlers
    receive the engine so they can schedule further events. *)

type t
(** A simulation run. *)

type handle
(** Names a scheduled event so it can be cancelled (e.g. a thread's
    work-completion event that must be withdrawn when a message preempts
    the thread). *)

val create : unit -> t
(** A fresh engine with the clock at [0.]. *)

val now : t -> float
(** Current simulation time. *)

val events_processed : t -> int
(** Number of events executed so far. *)

val pending : t -> int
(** Events scheduled but not yet executed (including cancelled ones not
    yet reaped). *)

val schedule : t -> delay:float -> (t -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0.] or not finite. *)

val schedule_at : t -> time:float -> (t -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time] precedes [now t]. *)

val cancel : handle -> unit
(** Cancel the event; a no-op if it already ran or was already
    cancelled. *)

val is_cancelled : handle -> bool
(** Whether {!cancel} was called on this handle. *)

val set_observer : t -> (t -> unit) -> unit
(** [set_observer t f] calls [f t] after every executed event — after
    the event's action ran and the clock advanced, so [f] sees the
    post-event state. At most one observer is installed; a second call
    replaces the first. Observers must not schedule or execute events;
    they exist for instrumentation (heap size / dispatch-rate probes). *)

val step : t -> bool
(** Execute the earliest pending event. Returns [false] when no events
    remain (cancelled events are skipped silently). *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run t] executes events until none remain, the clock passes [until],
    or [max_events] have executed. When stopping on [until], the clock is
    advanced to exactly [until] and remaining events stay pending. *)
