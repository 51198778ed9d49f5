let default_rules = Ast_rules.rules @ Project_rules.rules

let parse_error_rule =
  Rule.v ~id:"parse-error" ~severity:Finding.Error
    ~hint:"fix the syntax error; unparseable files cannot be analysed"
    ~check:(fun ~path:_ _ -> [])

(* Not a [check] rule: bare-suppression findings are synthesised by
   [lint_source] from the suppression regions themselves, because the
   evidence is the attribute, not the code it governs. *)
let bare_suppression_rule =
  Rule.v ~id:"bare-suppression" ~severity:Finding.Warning
    ~hint:
      "say why the finding is safe to ignore: [@lint.allow \"rule-id\" \"reason it is \
       safe here\"]; unjustified suppressions rot into unauditable exemptions"
    ~check:(fun ~path:_ _ -> [])

let bare_suppression_findings regions =
  List.filter_map
    (fun (r : Suppress.region) ->
      match r.justification with
      | Some _ -> None
      | None ->
        Some
          (Rule.finding bare_suppression_rule ~loc:r.attr_loc
             (Format.asprintf "suppression of %s carries no justification"
                (String.concat ", " r.rules))))
    regions

let whole_file_loc path =
  let pos = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

type parsed =
  | Structure of Parsetree.structure
  | Signature of Parsetree.signature
  | Parse_failed of Location.t * string

(* compiler-libs' lexer keeps global mutable state (its string buffer and
   comment stack), so parsing is not domain-safe. Serialise the parse
   itself; the rule checks, suppression filtering and sorting of a task
   under a pool-backed [map_tasks] still run in parallel. *)
let parse_lock = Mutex.create ()

let parse ~path contents =
  let kind = if Filename.check_suffix path ".mli" then `Intf else `Impl in
  let lexbuf = Lexing.from_string contents in
  Location.init lexbuf path;
  Mutex.protect parse_lock @@ fun () ->
  match kind with
  | `Impl -> (
    try Structure (Parse.implementation lexbuf) with
    | Syntaxerr.Error err ->
      Parse_failed (Syntaxerr.location_of_error err, "syntax error")
    | Lexer.Error (_, loc) -> Parse_failed (loc, "lexer error")
    | exn -> Parse_failed (whole_file_loc path, Printexc.to_string exn))
  | `Intf -> (
    try Signature (Parse.interface lexbuf) with
    | Syntaxerr.Error err ->
      Parse_failed (Syntaxerr.location_of_error err, "syntax error")
    | exn -> Parse_failed (whole_file_loc path, Printexc.to_string exn))

let check_parsed ?(rules = default_rules) ~path parsed =
  match parsed with
  | Parse_failed (loc, msg) -> [ Rule.finding parse_error_rule ~loc msg ]
  | Signature _ -> []
  | Structure structure ->
    let regions = Suppress.collect structure in
    (* Only a justified suppression may silence a bare-suppression finding,
       otherwise [@lint.allow "bare-suppression"] would excuse itself. *)
    let justified =
      List.filter (fun (r : Suppress.region) -> r.justification <> None) regions
    in
    let rule_findings =
      rules
      |> List.concat_map (fun (r : Rule.t) -> r.check ~path structure)
      |> List.filter (fun f -> not (Suppress.suppressed regions f))
    in
    let bare =
      bare_suppression_findings regions
      |> List.filter (fun f -> not (Suppress.suppressed justified f))
    in
    List.sort Finding.compare (rule_findings @ bare)

let lint_source ?rules ~path contents =
  check_parsed ?rules ~path (parse ~path contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let skipped_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* Depth-first listing of every .ml/.mli under [roots]; a root that is itself
   a file is taken as-is. Results are sorted for stable reports. *)
let source_files roots =
  let acc = ref [] in
  let rec visit path =
    if Sys.is_directory path then begin
      if not (List.mem (Filename.basename path) skipped_dirs) then
        Sys.readdir path |> Array.to_list |> List.sort String.compare
        |> List.iter (fun entry -> visit (Filename.concat path entry))
    end
    else if is_source path then acc := path :: !acc
  in
  List.iter visit roots;
  List.rev !acc

(* [map_tasks] is the parallelism seam: perfbench's jobs-2 probe injects
   a pool-backed mapper ([Lopc_repro.Parallel.run]) without this library
   depending on the runtime. Any mapper must return results in task
   order; findings are then concatenated in file order and sorted, so the
   output is byte-identical whatever the worker count.

   Each task is the whole per-file job — read, parse, check — and only
   the parse itself runs under [parse_lock], so one file's parse can
   overlap other files' reads and rule checks. The parse stays
   serialised (compiler-libs' lexer state, see above) and is most of a
   pass, so N workers do not beat one on a parse-bound tree and gain at
   most about 1.3x on the repo tree (perfbench/README.md, "Lint
   `--jobs`"). *)
let lint_paths ?rules ?map_tasks roots =
  let files = source_files roots in
  let tasks =
    Array.of_list
      (List.map
         (fun path () ->
           match read_file path with
           | contents -> lint_source ?rules ~path contents
           | exception Sys_error msg ->
             [ Rule.finding parse_error_rule ~loc:(whole_file_loc path) msg ])
         files)
  in
  let results =
    match map_tasks with
    | Some run -> run tasks
    | None -> Array.map (fun task -> task ()) tasks
  in
  Array.to_list results |> List.concat |> List.sort Finding.compare

type format = Human | Json | Sarif

let report ppf ~format findings =
  match format with
  | Sarif -> Sarif.report ppf findings
  | Human ->
    List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp_human f) findings;
    let errors, warnings =
      List.partition (fun (f : Finding.t) -> f.severity = Finding.Error) findings
    in
    if findings <> [] then
      Format.fprintf ppf "%d finding%s (%d error%s, %d warning%s)@."
        (List.length findings)
        (if List.length findings = 1 then "" else "s")
        (List.length errors)
        (if List.length errors = 1 then "" else "s")
        (List.length warnings)
        (if List.length warnings = 1 then "" else "s")
  | Json ->
    Format.fprintf ppf "{@[<v 1>@,\"count\": %d,@,\"findings\": [" (List.length findings);
    List.iteri
      (fun i f ->
        if i > 0 then Format.fprintf ppf ",";
        Format.fprintf ppf "@,  %a" Finding.pp_json f)
      findings;
    Format.fprintf ppf "@,]@]@,}@."
