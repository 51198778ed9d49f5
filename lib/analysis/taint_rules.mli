(** Determinism taint (typed, interprocedural).

    No definition reachable from the simulator (entry directories
    [lib/activemsg], [lib/eventsim]) or from a solver entry point (any
    function named [solve] or [solve_status], plus explicit extra entries)
    may reference a nondeterminism source: the global [Stdlib.Random]
    stream, wall clocks ([Sys.time], [Unix.gettimeofday], [Unix.time]),
    [Hashtbl] iteration, or polymorphic compare/equality/hash instantiated
    at a float-bearing, abstract or polymorphic type. Findings carry the
    reachability chain from the entry that first discovered the tainted
    definition. *)

val rule_id : string

val severity : Finding.severity

(** The solver and simulator entry points, shared with {!Retry_rules}:
    defs under [lib/activemsg] or [lib/eventsim], defs named [solve] or
    [solve_status], and the extra [entries] (keys or key prefixes, from
    [--entry]). *)
val is_entry : entries:string list -> Callgraph.def -> bool

(** The wall clocks a deterministic run must not read. *)
val wall_clocks : string list

(** [entries]: extra entry keys or key prefixes (from [--entry]). *)
val check : ?entries:string list -> Callgraph.t -> Finding.t list
