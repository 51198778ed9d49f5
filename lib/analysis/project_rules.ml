(* Rules about the shape of the project rather than the code inside one
   expression. They still run per compilation unit so suppression via a
   floating [@@@lint.allow "..."] in the offending file works uniformly. *)

let file_start_loc path =
  let pos = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

let missing_mli =
  let rec rule =
    lazy
      (Rule.v ~id:"missing-mli" ~severity:Finding.Warning
         ~hint:
           "write an interface: unconstrained library modules leak internals and make \
            refactoring a breaking change"
         ~check:(fun ~path _structure ->
           if
             Rule.in_library path
             && Filename.check_suffix path ".ml"
             && not (Sys.file_exists (path ^ "i"))
           then
             [
               Rule.finding (Lazy.force rule) ~loc:(file_start_loc path)
                 (Format.asprintf "library module %s has no interface file %si"
                    (Filename.basename path) (Filename.basename path));
             ]
           else []))
  in
  Lazy.force rule

let rules = [ missing_mli ]
