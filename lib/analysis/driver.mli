(** Linter entry points: parse sources with compiler-libs, run the rule
    registry, filter suppressions, and format reports. *)

(** The seeded rule registry: {!Ast_rules.rules} then {!Project_rules.rules}.
    To add a rule, build a {!Rule.t} and extend this list (or pass a custom
    [?rules] to the functions below). *)
val default_rules : Rule.t list

(** The synthetic rule reported for [@lint.allow] attributes that carry no
    justification string. Not part of {!default_rules} — its findings come
    from the suppression regions themselves, not from a [check]. *)
val bare_suppression_rule : Rule.t

(** Lint one compilation unit given as a string. [path] determines both the
    reported file name and path-sensitive rules (lib/ vs executable code,
    lib/prng exemption, sibling-.mli lookup). [.mli] paths are only checked
    for parse errors. Findings are sorted and already suppression-filtered. *)
val lint_source : ?rules:Rule.t list -> path:string -> string -> Finding.t list

(** All .ml/.mli files under the given roots (files or directories),
    skipping _build and VCS directories, sorted. *)
val source_files : string list -> string list

(** Lint every source under the given roots. [map_tasks] runs the per-file
    tasks (the parallelism seam — perfbench's jobs-2 probe passes a
    {!Lopc_repro.Parallel} pool's [run]); it must preserve task order. Output is byte-identical
    for any mapper because findings are re-sorted globally. *)
val lint_paths :
  ?rules:Rule.t list ->
  ?map_tasks:((unit -> Finding.t list) array -> Finding.t list array) ->
  string list ->
  Finding.t list

type format = Human | Json | Sarif

(** Print findings in the requested format. Human format appends a summary
    line when there are findings; JSON emits [{"count": n, "findings": [...]}];
    SARIF emits a single-run SARIF 2.1.0 log ({!Sarif.report}). *)
val report : Format.formatter -> format:format -> Finding.t list -> unit
