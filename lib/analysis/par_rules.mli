(** Parallel task RNG capture (typed, intraprocedural).

    Tasks handed to [Parallel.run]/[Parallel.map] execute on whichever
    domain steals them; a task that draws from (or splits) a raw [Rng.t]
    captured from the enclosing scope produces values that depend on
    worker scheduling, because the shared generator's state advances in
    completion order. [Parallel.run] is order-insensitive exactly when
    every task draws only from its own pre-split stream — derived
    serially, keyed on the task index — which is the discipline this rule
    enforces: inside any argument of a [Parallel.run]/[map] application, a
    use of a raw [Rng.t] under a lambda whose binder lies outside that
    argument is an error. [Rng.t array] carriers (one element per task)
    are the sanctioned pattern and are not flagged; uses outside any
    lambda run serially at construction time and are also fine. *)

val rule_id : string

val severity : Finding.severity

(** Whether a normalised key is [Parallel.run] or [Parallel.map] — of the
    real [Lopc_repro.Parallel] or of a fixture-local [Parallel] module
    (matched by suffix). Shared with the race rules ({!Race_rules}), so
    "what counts as a parallel entry" has one definition. *)
val is_parallel_runner : string -> bool

(** Every ident bound by any pattern inside the expression — lambda
    parameters and let-bindings alike. *)
val bound_idents : Typedtree.expression -> Ident.t list

val check : Callgraph.t -> Finding.t list
