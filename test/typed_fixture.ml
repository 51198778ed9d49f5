(* Typed-tree fixtures for the stage-2 lint tests: source strings are
   typechecked in-process against the standard library, so the tests need
   no _build tree. *)

module Cmt_loader = Lopc_analysis.Cmt_loader

let initialised = ref false

let init () =
  if not !initialised then begin
    initialised := true;
    Compmisc.init_path ();
    (* Fixtures are deliberately odd code; compiler warnings about them are
       noise for whoever runs the test binary. *)
    ignore (Warnings.parse_options false "-a")
  end

let type_in env ~modname ~source contents =
  let lexbuf = Lexing.from_string contents in
  Location.init lexbuf source;
  match Parse.implementation lexbuf with
  | exception exn -> Error ("parse error: " ^ Printexc.to_string exn)
  | parsetree -> (
    match Typemod.type_structure env parsetree with
    | structure, signature, _, _, _ ->
      Ok (Cmt_loader.of_implementation ~modname ~source structure, signature)
    | exception exn -> Error ("type error: " ^ Printexc.to_string exn))

(* One unit; [Error] carries a parse- or type-error description. *)
let typecheck_string ~modname ~source contents =
  init ();
  Result.map fst (type_in (Compmisc.initial_env ()) ~modname ~source contents)

(* Several units, each typechecked with the earlier ones in scope as
   compilation units, so a later unit can reference [Earlier.value]. The
   list gives (modname, source path, contents). *)
let typecheck_units units =
  init ();
  let _, loaded =
    List.fold_left
      (fun (env, acc) (modname, source, contents) ->
        match type_in env ~modname ~source contents with
        | Error msg -> failwith (Printf.sprintf "%s does not typecheck: %s" source msg)
        | Ok (u, signature) ->
          let id = Ident.create_persistent modname in
          let env = Env.add_module id Mp_present (Types.Mty_signature signature) env in
          (env, u :: acc))
      (Compmisc.initial_env (), [])
      units
  in
  List.rev loaded
