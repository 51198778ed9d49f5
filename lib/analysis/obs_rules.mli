(** Observability wall-clock ban (typed, interprocedural).

    No definition reachable from the observability layer (any definition
    whose source lives under [lib/obs]) may reference a wall clock
    ([Sys.time], [Unix.gettimeofday], [Unix.time]). Trace timestamps must
    come from the simulated clock only — that is what keeps trace files
    byte-identical across runs and across [--jobs] settings. Findings carry the reachability chain from the observability
    definition that first discovered the clock. *)

val rule_id : string

val severity : Finding.severity

val summary : string

val check : Callgraph.t -> Finding.t list
