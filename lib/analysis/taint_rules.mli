(** Determinism taint (typed, interprocedural).

    No definition reachable from the simulator or the observability layer
    (entry directories [lib/activemsg], [lib/eventsim], [lib/obs]) or from
    a solver entry point (any function named [solve] or [solve_status])
    may reference a nondeterminism source: the global [Stdlib.Random]
    stream, wall clocks ([Sys.time], [Unix.gettimeofday], [Unix.time]),
    [Hashtbl] iteration, or polymorphic compare/equality/hash instantiated
    at a float-bearing, abstract or polymorphic type. Covering [lib/obs]
    keeps trace timestamps in simulated cycles, so traces stay
    byte-identical across runs and [--jobs] settings. Findings carry the
    reachability chain from the entry that first discovered the tainted
    definition. *)

val rule_id : string

val severity : Finding.severity

(** The solver, simulator and observability entry points, shared with
    {!Retry_rules}: defs under [lib/activemsg], [lib/eventsim] or
    [lib/obs], and defs named [solve] or [solve_status]. *)
val is_entry : Callgraph.def -> bool

val check : Callgraph.t -> Finding.t list
