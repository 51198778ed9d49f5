(* lopc-lint: repo-specific static analysis for model-safety and
   reproducibility invariants, in two stages: syntactic rules over the
   parse tree and (with --typed) interprocedural rules, interval rules
   included, over the .cmt typed trees dune writes during the build.

   Exit codes: 0 clean, 1 any finding (warnings included), 2 usage. *)

module Driver = Lopc_analysis.Driver
module Typed_driver = Lopc_analysis.Typed_driver
module Explain = Lopc_analysis.Explain
module Finding = Lopc_analysis.Finding

let usage =
  "lopc_lint [OPTIONS] [PATH ...]\n\
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

let () =
  let format = ref Driver.Human in
  let want_list = ref false in
  let want_catalogue_md = ref false in
  let typed = ref false in
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
      ( "--explain",
        Arg.String (fun id -> explain := Some id),
        "ID Print the rationale and a minimal violating example for a rule" );
      ( "--effects",
        Arg.String (fun k -> effects_key := Some k),
        "KEY Print the transitive effect footprint of a definition (normalised \
         key, e.g. Amva.solve_status) and exit" );
      ( "--show-intervals",
        Arg.String (fun k -> intervals_key := Some k),
        "KEY Print the interval summary of a definition (params and return; \
         normalised key, e.g. Amva.solve_status) and exit" );
      ( "--catalogue-md",
        Arg.Set want_catalogue_md,
        " Print the whole rule catalogue as markdown (the generated RULES.md) \
         and exit" );
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
         Amva.solve_status)@."
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
         Amva.solve_status)@."
        key;
      exit 2
    end
  | None -> ());
  let typed_findings =
    if !typed then typed_stage (fun () -> Typed_driver.analyze_paths roots) else []
  in
  let findings = List.sort_uniq Finding.compare (Driver.lint_paths roots @ typed_findings) in
  Driver.report Format.std_formatter ~format:!format findings;
  exit (if findings = [] then 0 else 1)
