(** Test-only exports (typed, whole-program).

    Production is {!Callgraph.reach} from every definition whose source
    lies outside [lib/] and [test/] — [bin/] and [examples/] in the CI
    gate. A first-binding [lib/] definition outside that set that no
    other [lib/] definition references is reported: only [test/] uses it,
    or nothing does. Only the root of each dead subgraph is reported; the
    compiler's unused-value warning catches its helpers once it is gone.
    When no production definition is loaded the rule reports nothing. *)

val rule_id : string

val severity : Finding.severity

val check : Callgraph.t -> Finding.t list
