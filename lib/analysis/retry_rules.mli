(** Unbounded-retry detection (typed, interprocedural).

    Every [while] loop in a definition reachable from a solver or
    simulator entry point (any function named [solve]/[solve_status], or
    anything under an entry directory) must sit in a budget-aware
    definition: one that mentions a budget-ish identifier (containing
    [fuel], [budget], [cancel], [max_], [deadline] or [remaining]) or
    references [Budget.*] / [Cancel.*] directly. A retry or polling loop
    in a definition with none of these cannot be stopped by the
    supervised runtime and wedges the process when the model leaves its
    convergent regime. [for] loops are inherently bounded and exempt.
    Findings carry the call chain from the entry that reached the loop. *)

val rule_id : string

val severity : Finding.severity

(** The entry points are {!Taint_rules.is_entry}'s. *)
val check : Callgraph.t -> Finding.t list
