(** Cycle-level tracing, ASCII timelines and response-time percentiles.

    Built on {!Machine.run}'s [on_cycle] observer: a bounded collector
    gathers the first completed cycles of a run, and the renderer prints
    each as a proportional text timeline — handy for eyeballing where a
    configuration spends its cycles (work, wire, handler queueing) and
    for teaching what the LoPC terms mean:

    {v
    node  3 @  12040.0  |======== W 1000 ==|-- St --|# Rq 412 #|-- St --|# Ry 208 #|  R = 1740
    v}  *)

type collector
(** Bounded in-memory trace. *)

val collector : ?limit:int -> unit -> collector * (Machine.cycle_report -> unit)
(** [collector ()] returns a trace plus the observer function to pass as
    [Machine.run ~on_cycle]. The first [limit] (default [64]) measured
    cycles are retained; warm-up cycles and overflow are dropped.
    @raise Invalid_argument if [limit < 1]. *)

val reports : collector -> Machine.cycle_report list
(** Collected cycles in completion order. *)

val response_percentiles :
  float list -> (unit -> float list) * (Machine.cycle_report -> unit)
(** [response_percentiles qs] returns a reader and the observer to pass
    as [Machine.run ~on_cycle]. The observer feeds one streaming P²
    estimator per quantile of [qs] with the cycle time
    [completed -. started] of each counted report, the samples and the
    order {!Metrics.t}'s [response] sees. The reader returns the
    estimates in the order of [qs], each [nan] before the first counted
    cycle.
    @raise Invalid_argument if a quantile is outside (0, 1). *)

val pp_timeline : ?width:int -> Format.formatter -> Machine.cycle_report list -> unit
(** Proportional ASCII timelines, one line per cycle, with a shared time
    scale chosen from the longest cycle. [width] is the number of
    characters for that longest cycle (default [60]). *)
