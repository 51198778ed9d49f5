(** Exception escape (typed, interprocedural).

    Every [solve_status] definition — and everything it calls, transitively
    — must be raise-free except for [Invalid_argument] (the documented
    precondition contract) and exceptions that are raised and caught before
    escaping. The analysis computes per-definition escape sets by fixpoint
    over the call graph, subtracting at every call site the exceptions the
    enclosing handlers catch; ["*"] stands for a computed (re-raised)
    exception, which only a wildcard handler removes. Stdlib functions
    outside a known raising list are assumed non-raising, and implicit
    bounds/assert failures are out of scope (documented approximations).
    Findings carry a witness chain ending at the raise site. *)

val rule_id : string

val severity : Finding.severity

val summary : string

val check : Callgraph.t -> Finding.t list
