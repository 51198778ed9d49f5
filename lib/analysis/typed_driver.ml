(* Stage 2 of the linter: load typed trees, build the call graph, run the
   interprocedural rules, and filter suppressions by re-reading the
   [@lint.allow] attributes of whichever source files the findings point
   into. Stage 1 (driver.ml) never sees .cmt files; this module never
   parses untyped sources except to recover suppression regions. *)

exception No_cmt_inputs of string list

let analyze_units units =
  let graph = Callgraph.build units in
  let findings =
    Taint_rules.check graph @ Exn_rules.check graph @ Stream_rules.check graph
    @ Par_rules.check graph @ Retry_rules.check graph
    @ Race_rules.check (Effects.analyze graph)
    @ Numeric_rules.check graph @ Export_rules.check graph
  in
  (* Suppression regions come from the sources the findings point into;
     cache per file since many findings share one. *)
  let regions_cache = Hashtbl.create 8 in
  let regions_for file =
    match Hashtbl.find_opt regions_cache file with
    | Some r -> r
    | None ->
      let r = Suppress.regions_of_file file in
      Hashtbl.add regions_cache file r;
      r
  in
  findings
  |> List.filter (fun f -> not (Suppress.suppressed (regions_for (Finding.file f)) f))
  |> List.sort_uniq Finding.compare

(* Accept either _build paths or plain source roots: when a root holds no
   .cmt files directly, look for its compiled image under _build/default
   so `lopc_lint --typed lib` works from the repository root. *)
let effective_root root =
  if Cmt_loader.cmt_files [ root ] <> [] then root
  else
    let built = Filename.concat (Filename.concat "_build" "default") root in
    if Sys.file_exists built then built else root

let units_of_paths roots =
  let roots = List.map effective_root roots in
  if Cmt_loader.cmt_files roots = [] then raise (No_cmt_inputs roots);
  Cmt_loader.load roots

let analyze_paths roots = analyze_units (units_of_paths roots)

let effects_of_paths roots =
  Effects.analyze (Callgraph.build (units_of_paths roots))

let absint_of_paths roots =
  Absint.analyze (Callgraph.build (units_of_paths roots))
