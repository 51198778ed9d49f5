(** Cycle-level tracing and ASCII timelines.

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

val pp_timeline : ?width:int -> Format.formatter -> Machine.cycle_report list -> unit
(** Proportional ASCII timelines, one line per cycle, with a shared time
    scale chosen from the longest cycle. [width] is the number of
    characters for that longest cycle (default [60]). *)
