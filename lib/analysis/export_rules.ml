(* Test-only exports: machinery that only tests use does not live in lib/.
   Production is everything the defs outside lib/ and test/ (bin/,
   examples/) reach. A lib/ def outside that set that no other lib/ def
   references is the root of a dead subgraph, and only the root is
   reported: once it is deleted, the compiler's unused-value warning
   catches the helpers behind it. With no production def loaded (a lint of
   lib/ alone) there is nothing to reach from, so the rule is silent. *)

let rule_id = "test-only-export"

let severity = Finding.Warning

let hint =
  "delete it with the tests that only check it, or move it into test/ if it \
   is test harness; when a user outside the linted roots needs it, suppress \
   with [@@lint.allow \"test-only-export\" \"<file> uses it\"]"

let check (graph : Callgraph.t) =
  let in_lib (d : Callgraph.def) = Callgraph.dir_prefix "lib" d.source in
  let in_test (d : Callgraph.def) = Callgraph.dir_prefix "test" d.source in
  let production d = not (in_lib d || in_test d) in
  if not (List.exists production graph.defs) then []
  else
    let reached =
      Callgraph.SSet.of_list
        (Callgraph.reach graph ~entry:production (fun d _ -> [ d.key ]))
    in
    (* Per key: whether another lib/ def references it, and the first
       test/ def that does. *)
    let lib_used = Hashtbl.create 256 and test_user = Hashtbl.create 256 in
    List.iter
      (fun (d : Callgraph.def) ->
        List.iter
          (fun (r : Callgraph.ref_site) ->
            if not (String.equal r.target d.key) then
              if in_lib d then Hashtbl.replace lib_used r.target ()
              else if in_test d && not (Hashtbl.mem test_user r.target) then
                Hashtbl.add test_user r.target d.key)
          d.refs)
      graph.defs;
    List.filter_map
      (fun (d : Callgraph.def) ->
        let is_init = String.starts_with ~prefix:"(init-" d.def_name in
        if
          in_lib d && (not is_init)
          && Callgraph.is_first_binding graph d
          && (not (Callgraph.SSet.mem d.key reached))
          && not (Hashtbl.mem lib_used d.key)
        then
          let why =
            match Hashtbl.find_opt test_user d.key with
            | Some user -> Printf.sprintf "only test/ uses it (e.g. %s)" user
            | None -> "nothing uses it"
          in
          let message = Printf.sprintf "%s is a lib/ export, but %s" d.key why in
          Some (Finding.v ~rule:rule_id ~severity ~loc:d.def_loc ~message ~hint)
        else None)
      graph.defs
