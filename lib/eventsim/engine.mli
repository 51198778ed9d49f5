(** Discrete-event simulation engine with closure events.

    Wraps one {!Event_heap} with a simulation clock, callback scheduling
    and eager cancellation. Events execute in [(time, seq)] order, so
    simultaneous events run in the order they were scheduled and a run is
    a pure function of its inputs. Time never moves backwards;
    scheduling into the past is a programming error and raises. Handlers
    receive the engine so they can schedule further events.

    Each {!schedule} allocates its closure and a handle. The heap carries
    ints, so the engine keeps each pending closure in a slot table of its
    own and pushes the slot; the slot is freed when the event runs or is
    cancelled. The active-message simulator does not use this module: it
    pushes int-coded events on an {!Event_heap} of its own and dispatches
    them with one [match], which allocates neither. *)

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

val schedule : t -> delay:float -> (t -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0.] or not finite. *)

val schedule_at : t -> time:float -> (t -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time] precedes [now t]. *)

val cancel : handle -> unit
(** Cancel the event, removing it from the queue; a no-op if it already
    ran or was already cancelled. *)

val step : t -> bool
(** Execute the earliest pending event. Returns [false] when no events
    remain. *)
