(** Flow-sensitive interval abstract interpretation over the typed trees
    — the third stage of the linter.

    [analyze] runs a summary fixpoint over the call graph: every
    definition gets an abstract return value in the {!Interval} domain
    (widened, so chaotic iteration terminates), with parameter seeds
    taken from the [@lopc.*] annotations ({!Annot}) on its argument
    patterns. Inside a body the evaluation is flow-sensitive:
    comparisons refine the environment on each branch ([if u < 1.]
    narrows [u] to \[-inf, pred 1.\] in the then-branch, and a branch
    that raises contributes nothing to the join), which is exactly the
    precision step the syntactic [unguarded-division] heuristic cannot
    make.

    [check] replays every body against the fixpoint summaries and emits
    the numeric-contract violations ({!Numeric_rules} maps them to
    findings):

    - [probability-range] / [negative-cost]: a value whose interval is
      not contained in an annotated parameter/field's admissible range
      flows into it (top counts — an unconstrained value may lie
      outside);
    - [division-by-vanishing]: a [/.] denominator that is
      subtraction-shaped (the [1. - u] family, tracked by a [vanishing]
      bit) and whose interval contains 0;
    - [unit-mismatch]: two different [@lopc.unit] tags mixed
      additively. *)

(** Abstract value: interval, "derived from a subtraction" bit (the
    vanishing-denominator family), and the dimension tag if one is
    known. *)
type value = { itv : Interval.t; vanishing : bool; uom : string option }

type violation = { v_rule : string; v_loc : Location.t; v_message : string }

type t

val analyze : Callgraph.t -> t

(** All violations, in emission order (callers sort). *)
val check : t -> violation list

(** The stable dump behind [lopc_lint --show-intervals KEY]: one [param]
    line per declared parameter (its annotation-seeded interval, [top]
    when unannotated) and a [return] line with the fixpoint summary.
    False when the key has no summary. *)
val print_summary : Format.formatter -> t -> string -> bool
