(** RNG stream discipline (typed, linear-use approximation).

    A stream returned by [Rng.split] is a linear resource: each child
    stream must have exactly one consumer, or draw sequences couple and
    bit-for-bit replay silently breaks. For every let-binding of a split
    result the rule computes the maximum number of uses of the bound
    variable along any execution path — branch arms are alternatives
    (max), sequencing adds, and uses under a lambda or loop body count
    double because the body may run repeatedly. Two or more uses on one
    path is a finding at the binding site, listing the use lines. *)

val rule_id : string

val severity : Finding.severity

val check : Callgraph.t -> Finding.t list
