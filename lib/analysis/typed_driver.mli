(** Stage 2 of the linter: the typed, interprocedural analyses.

    Loads [.cmt] typed trees ({!Cmt_loader}), builds the project call graph
    ({!Callgraph}), computes per-function effect summaries ({!Effects}) and
    runs the cross-module rules — {!Taint_rules} (determinism, lib/obs
    traces included), {!Exn_rules} (exception escape), {!Stream_rules}
    (RNG stream discipline), {!Par_rules} (task RNG capture),
    {!Retry_rules} (unbounded loops), {!Race_rules} (shared-mutation
    races), the interval rules ({!Numeric_rules}) and {!Export_rules}
    (test-only [lib/] exports). Findings are filtered against the
    [[@lint.allow]] regions of the source files they point into, then
    sorted and deduplicated. *)

(** Raised by the path-based entry points when no [.cmt] file exists under
    any of the (effective) roots — the tree has not been built, so the
    typed stage would silently analyse nothing. Carries the roots
    searched. *)
exception No_cmt_inputs of string list

(** Analyse already-loaded units with every typed rule. *)
val analyze_units : Cmt_loader.unit_info list -> Finding.t list

(** Load every unit under the given roots and analyse them. A root without
    [.cmt] files falls back to its compiled image under [_build/default], so
    plain source roots work from the repository root after a build. Raises
    {!No_cmt_inputs} when the roots yield no typed trees at all. *)
val analyze_paths : string list -> Finding.t list

(** Effect summaries for every definition under the given roots, for the
    [--effects] footprint dump. Raises {!No_cmt_inputs} like
    {!analyze_paths}. *)
val effects_of_paths : string list -> Effects.t

(** Interval analysis over every definition under the given roots, for the
    [--show-intervals] dump. Raises {!No_cmt_inputs} like
    {!analyze_paths}. *)
val absint_of_paths : string list -> Absint.t
