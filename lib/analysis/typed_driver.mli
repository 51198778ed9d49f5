(** Stage 2 of the linter: the typed, interprocedural analyses.

    Loads [.cmt] typed trees ({!Cmt_loader}), builds the project call graph
    ({!Callgraph}), computes per-function effect summaries ({!Effects}) and
    runs the cross-module rules — {!Taint_rules} (determinism),
    {!Exn_rules} (exception escape), {!Stream_rules} (RNG stream
    discipline), {!Par_rules} (task RNG capture), {!Obs_rules} and
    {!Race_rules} (shared-mutation races). Findings are filtered against
    the [[@lint.allow]] regions of the source files they point into, then
    sorted and deduplicated. *)

(** Raised by the path-based entry points when no [.cmt] file exists under
    any of the (effective) roots — the tree has not been built, so the
    typed stage would silently analyse nothing. Carries the roots
    searched. *)
exception No_cmt_inputs of string list

(** (rule id, severity, summary) of every typed rule, for [--list-rules]. *)
val catalogue : (string * Finding.severity * string) list

(** Analyse already-loaded units. [entries] adds extra entry points for
    the determinism-taint and unbounded-retry rules (keys or key prefixes,
    as given to [--entry]). [stage] selects which typed rules run: [`All]
    (default) or [`Numeric] — just the interval-stage rules, as [--absint]
    requests. *)
val analyze_units :
  ?entries:string list ->
  ?stage:[ `All | `Numeric ] ->
  Cmt_loader.unit_info list ->
  Finding.t list

(** Load every unit under the given roots and analyse them. A root without
    [.cmt] files falls back to its compiled image under [_build/default], so
    plain source roots work from the repository root after a build. Raises
    {!No_cmt_inputs} when the roots yield no typed trees at all. *)
val analyze_paths :
  ?entries:string list ->
  ?stage:[ `All | `Numeric ] ->
  string list ->
  Finding.t list

(** Effect summaries for every definition under the given roots, for the
    [--effects] footprint dump. Raises {!No_cmt_inputs} like
    {!analyze_paths}. *)
val effects_of_paths : string list -> Effects.t

(** Interval analysis over every definition under the given roots, for the
    [--show-intervals] dump. Raises {!No_cmt_inputs} like
    {!analyze_paths}. *)
val absint_of_paths : string list -> Absint.t
