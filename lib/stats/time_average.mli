(** Time-weighted averages of piecewise-constant signals.

    The simulator tracks quantities such as queue length and processor
    utilization that change value at event instants and are constant in
    between. [Time_average] integrates such a signal so that
    [average t] is [∫ signal dt / elapsed time] — exactly the quantity
    Little's law and the MVA equations speak about. *)

type t
(** Mutable accumulator. *)

val create : ?value:float -> unit -> t
(** [create ~value ()] begins integrating a signal that holds [value]
    (default [0.]) from time [0.]. *)

val update : t -> now:float -> float -> unit
(** [update t ~now v] records that the signal changed to [v] at time [now].
    Time must be non-decreasing across calls.
    @raise Invalid_argument if [now] precedes the previous update. *)

val value : t -> float
(** Current signal value. *)

val average : t -> now:float -> float
(** Time average of the signal since creation or the last {!reset};
    [nan] when no time has elapsed. *)

val integral : t -> now:float -> float
(** [∫ signal dt] since creation or the last {!reset}, up to [now]. *)

val reset : t -> now:float -> unit
(** [reset t ~now] discards history and restarts integration at [now] with
    the current signal value — used to drop simulator warm-up. *)
