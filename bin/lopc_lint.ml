(* lopc-lint: repo-specific static analysis for model-safety and
   reproducibility invariants, in three stages: syntactic rules over the
   parse tree, (with --typed) interprocedural rules over the .cmt typed
   trees dune writes during the build, and (within --typed, or alone
   with --absint) the interval abstract-interpretation rules.

   Also a subcommand:

     lopc_lint baseline write [--baseline FILE] [PATH ...]
     lopc_lint baseline diff  [--baseline FILE] [PATH ...]

   `write` stores the current findings (both stages) as the accepted
   baseline; `diff` renders the drift as markdown and exits 1 on any new
   error-severity finding — the CI gate.

   Exit codes: 0 clean, 1 error-severity findings (any findings with
   --warn-as-error; baseline regressions for `baseline diff`), 2 usage. *)

module Driver = Lopc_analysis.Driver
module Typed_driver = Lopc_analysis.Typed_driver
module Explain = Lopc_analysis.Explain
module Finding = Lopc_analysis.Finding
module Baseline = Lopc_analysis.Baseline
module Parallel = Lopc_repro.Parallel

let usage =
  "lopc_lint [OPTIONS] [PATH ...]\n\
   lopc_lint baseline (write|diff) [--baseline FILE] [PATH ...]\n\
   Lint .ml/.mli sources under the given files or directories\n\
   (default: lib bin examples test).\n\n\
   --typed additionally runs the cross-module analyses over the .cmt files\n\
   of the same roots (falling back to _build/default/<root>), so run it\n\
   after `dune build`."

let list_rules ppf =
  List.iter
    (fun (e : Explain.entry) ->
      Format.fprintf ppf "%-24s %-7s %-9s %s@." e.id
        (Finding.severity_to_string e.severity)
        e.stage e.summary)
    Explain.entries

(* Run a typed-stage loader, mapping its usage errors to exit 2. *)
let typed_stage f =
  match f () with
  | v -> v
  | exception Typed_driver.No_cmt_inputs searched ->
    Format.eprintf
      "lopc_lint: no .cmt inputs under %s — run `dune build` first so the typed \
       stage has trees to analyse@."
      (String.concat " " searched);
    exit 2
  | exception Lopc_analysis.Cmt_loader.Duplicate_unit { modname; first; second } ->
    Format.eprintf
      "lopc_lint: %s and %s both compile to unit %s; lint them in separate runs@."
      first second modname;
    exit 2

let resolve_roots paths =
  match paths with
  | [] -> List.filter Sys.file_exists [ "lib"; "bin"; "examples"; "test" ]
  | roots ->
    List.iter
      (fun r ->
        if not (Sys.file_exists r) then begin
          Format.eprintf "lopc_lint: no such file or directory: %s@." r;
          exit 2
        end)
      roots;
    roots

(* The per-file syntactic stage, fanned over a worker pool when --jobs
   asks for more than one. Findings are re-sorted globally, so the output
   is byte-identical whatever the job count. *)
let syntactic_findings ~jobs roots =
  if jobs <= 1 then Driver.lint_paths roots
  else
    let map_tasks tasks =
      Parallel.with_pool ~jobs (fun pool -> Parallel.run pool tasks)
    in
    Driver.lint_paths ~map_tasks roots

let typed_findings ~stage ~entries roots =
  typed_stage (fun () -> Typed_driver.analyze_paths ~entries ~stage roots)

(* --------------------------------------------------------------- *)
(* baseline subcommand                                              *)
(* --------------------------------------------------------------- *)

let baseline_main args =
  let mode = ref None in
  let file = ref "lint-baseline.tsv" in
  let jobs = ref 1 in
  let paths = ref [] in
  let spec =
    [
      ( "--baseline",
        Arg.Set_string file,
        "FILE Baseline file (default lint-baseline.tsv)" );
      ("--jobs", Arg.Set_int jobs, "N Worker domains for the syntactic stage");
    ]
  in
  let anon p =
    match (!mode, p) with
    | None, ("write" | "diff") -> mode := Some p
    | None, other ->
      Format.eprintf "lopc_lint: unknown baseline action %S (write or diff)@." other;
      exit 2
    | Some _, p -> paths := p :: !paths
  in
  (try Arg.parse_argv ~current:(ref 0) (Array.of_list ("lopc_lint baseline" :: args)) spec anon usage
   with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  let mode =
    match !mode with
    | Some m -> m
    | None ->
      Format.eprintf "lopc_lint: baseline needs an action: write or diff@.";
      exit 2
  in
  let roots = resolve_roots (List.rev !paths) in
  (* The baseline always covers both stages: it is the CI gate over the
     same findings `--typed --warn-as-error` sees. *)
  let findings =
    List.sort_uniq Finding.compare
      (syntactic_findings ~jobs:!jobs roots
      @ typed_findings ~stage:`All ~entries:[] roots)
  in
  match mode with
  | "write" ->
    Baseline.write ~path:!file findings;
    Format.printf "wrote %s (%d finding%s)@." !file (List.length findings)
      (if List.length findings = 1 then "" else "s");
    exit 0
  | _ -> (
    match Baseline.diff ~path:!file Format.std_formatter findings with
    | exception Sys_error msg ->
      Format.eprintf "lopc_lint: cannot read baseline: %s@." msg;
      exit 2
    | regressed -> exit (if regressed then 1 else 0))

(* --------------------------------------------------------------- *)
(* main mode                                                        *)
(* --------------------------------------------------------------- *)

let () =
  (match Array.to_list Sys.argv with
  | _ :: "baseline" :: rest -> baseline_main rest
  | _ -> ());
  let format = ref Driver.Human in
  let want_list = ref false in
  let want_catalogue_md = ref false in
  let typed = ref false in
  let absint = ref false in
  let warn_as_error = ref false in
  let jobs = ref 1 in
  let entries = ref [] in
  let explain = ref None in
  let effects_key = ref None in
  let intervals_key = ref None in
  let paths = ref [] in
  let set_format = function
    | "human" -> format := Driver.Human
    | "json" -> format := Driver.Json
    | "sarif" -> format := Driver.Sarif
    | other ->
      Format.eprintf
        "lopc_lint: unknown format %S (expected human, json or sarif)@." other;
      exit 2
  in
  let spec =
    [
      ( "--format",
        Arg.String set_format,
        "FMT Output format: human (default), json or sarif" );
      ("--list-rules", Arg.Set want_list, " Print the rule catalogue and exit");
      ("--typed", Arg.Set typed, " Also run the typed cross-module analyses");
      ( "--absint",
        Arg.Set absint,
        " Also run just the interval abstract-interpretation rules (a subset \
         of --typed, for fast iteration)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N Fan the per-file syntactic stage over N worker domains (default 1); \
         output is byte-identical to --jobs 1" );
      ( "--entry",
        Arg.String (fun e -> entries := e :: !entries),
        "KEY Extra entry point for the determinism-taint and unbounded-retry \
         rules (key or key prefix, e.g. Amva.solve_status or Amva); repeatable" );
      ( "--explain",
        Arg.String (fun id -> explain := Some id),
        "ID Print the rationale and a minimal violating example for a rule" );
      ( "--effects",
        Arg.String (fun k -> effects_key := Some k),
        "KEY Print the transitive effect footprint of a definition (normalised \
         key, e.g. Amva.solve) and exit" );
      ( "--show-intervals",
        Arg.String (fun k -> intervals_key := Some k),
        "KEY Print the interval summary of a definition (params and return; \
         normalised key, e.g. Amva.solve) and exit" );
      ( "--catalogue-md",
        Arg.Set want_catalogue_md,
        " Print the whole rule catalogue as markdown (the generated RULES.md) \
         and exit" );
      ( "--warn-as-error",
        Arg.Set warn_as_error,
        " Exit nonzero on warnings too, not just errors" );
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun p -> paths := p :: !paths) usage with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  (match !explain with
  | Some id -> (
    match Explain.find id with
    | Some entry ->
      Explain.pp_entry Format.std_formatter entry;
      exit 0
    | None ->
      Format.eprintf "lopc_lint: unknown rule %S; --list-rules shows the catalogue@." id;
      exit 2)
  | None -> ());
  if !want_list then begin
    list_rules Format.std_formatter;
    exit 0
  end;
  if !want_catalogue_md then begin
    Explain.pp_markdown Format.std_formatter ();
    exit 0
  end;
  let roots = resolve_roots (List.rev !paths) in
  (match !effects_key with
  | Some key ->
    let effects = typed_stage (fun () -> Typed_driver.effects_of_paths roots) in
    if Lopc_analysis.Effects.print_footprint Format.std_formatter effects key then exit 0
    else begin
      Format.eprintf
        "lopc_lint: unknown definition %S (use the normalised key, e.g. \
         Amva.solve)@."
        key;
      exit 2
    end
  | None -> ());
  (match !intervals_key with
  | Some key ->
    let absint = typed_stage (fun () -> Typed_driver.absint_of_paths roots) in
    if Lopc_analysis.Absint.print_summary Format.std_formatter absint key then exit 0
    else begin
      Format.eprintf
        "lopc_lint: unknown definition %S (use the normalised key, e.g. \
         Amva.solve)@."
        key;
      exit 2
    end
  | None -> ());
  let syntactic = syntactic_findings ~jobs:!jobs roots in
  let typed_findings =
    if !typed || !absint then
      let stage = if !typed then `All else `Numeric in
      typed_findings ~stage ~entries:(List.rev !entries) roots
    else []
  in
  let findings = List.sort_uniq Finding.compare (syntactic @ typed_findings) in
  Driver.report Format.std_formatter ~format:!format findings;
  let failing =
    if !warn_as_error then findings
    else List.filter (fun (f : Finding.t) -> f.severity = Finding.Error) findings
  in
  exit (if failing = [] then 0 else 1)
