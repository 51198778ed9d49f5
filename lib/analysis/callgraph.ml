(* A project-wide call graph built from typed trees.

   Nodes are top-level value bindings (including bindings inside nested
   modules), keyed by a normalised dotted name such as "Amva.solve_status".
   Normalisation erases the three ways the same global can be spelled —
   through the dune wrapper module ("Lopc_mva.Station.validate"), through
   the mangled unit name ("Lopc_mva__Station.validate"), or through a local
   module alias ("module S = Lopc_mva.Station") — so cross-module edges
   resolve no matter how the source wrote the reference.

   Each node records every global reference in its body (with the
   instantiated type at the use site and the exception handlers enclosing
   it) and every textual raise site. The interprocedural rules are transfer
   functions over the three walks at the end of this file: [reach]
   (entry-point BFS), [fixpoint] (round-robin summaries) and [witness]
   (the call chain behind a summary fact). *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)
module IMap = Map.Make (Ident)

type ref_site = {
  target : string;  (* normalised dotted key of the referenced value *)
  ref_loc : Location.t;
  typ : Types.type_expr;  (* instantiated type at the reference *)
  caught : string list;  (* exn constructor names handled around the site; "*" = all *)
}

type raise_site = {
  exn : string;  (* constructor base name; "*" when raising a computed exn *)
  written : string;  (* as written in the source, for messages *)
  raise_loc : Location.t;
  raise_caught : string list;
}

type def = {
  key : string;
  def_name : string;
  source : string;
  unit_base : string;
  def_loc : Location.t;
  refs : ref_site list;  (* in source order *)
  raises : raise_site list;
  body : Typedtree.expression option;
}

type t = {
  defs : def list;  (* deterministic unit-then-source order *)
  by_key : def SMap.t;  (* first binding of a key wins *)
  types_by_key : Types.type_declaration SMap.t;  (* "Station.t" -> declaration *)
  wrappers : SSet.t;
  idents : string IMap.t;  (* toplevel binding ident -> its key, all units *)
}

(* ------------------------------------------------------------------ *)
(* Path normalisation                                                  *)
(* ------------------------------------------------------------------ *)

let rec flatten_path (p : Path.t) =
  match p with
  | Pident id -> [ Ident.name id ]
  | Pdot (p, s) -> flatten_path p @ [ s ]
  | Papply (p, _) -> flatten_path p
  | Pextra_ty (p, _) -> flatten_path p

(* [aliases] maps a local module name to its already-normalised target
   segments; [wrappers] is the set of dune wrapper-module names. *)
let normalize ~wrappers ~aliases segments =
  let rec fix segments =
    match segments with
    | [] -> []
    | "Stdlib" :: rest when rest <> [] -> fix rest
    | head :: rest -> (
      let head' = Cmt_loader.base_of_modname head in
      if head' <> head then fix (head' :: rest)
      else if SSet.mem head wrappers && rest <> [] then fix rest
      else
        match SMap.find_opt head aliases with
        | Some target when rest <> [] -> target @ rest
        | _ -> segments)
  in
  fix segments

let key_of segments = String.concat "." segments

(* ------------------------------------------------------------------ *)
(* Pass 1: definition shells, module aliases, type declarations        *)
(* ------------------------------------------------------------------ *)

(* Variables bound by a pattern, outermost first. *)
let rec pattern_vars : type k. k Typedtree.general_pattern -> (Ident.t * string) list =
 fun pat ->
  match pat.pat_desc with
  | Tpat_var (id, name) -> [ (id, name.txt) ]
  | Tpat_alias (p, id, name) -> (id, name.txt) :: pattern_vars p
  | Tpat_tuple ps -> List.concat_map pattern_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pattern_vars ps
  | Tpat_record (fields, _) -> List.concat_map (fun (_, _, p) -> pattern_vars p) fields
  | Tpat_array ps -> List.concat_map pattern_vars ps
  | Tpat_lazy p -> pattern_vars p
  | Tpat_or (a, b, _) -> pattern_vars a @ pattern_vars b
  | Tpat_variant (_, Some p, _) -> pattern_vars p
  | Tpat_value p -> pattern_vars (p :> Typedtree.value Typedtree.general_pattern)
  | _ -> []

type shell = {
  s_key : string;
  s_name : string;
  s_loc : Location.t;
  s_expr : Typedtree.expression;
  s_idents : Ident.t list;  (* all idents this binding introduces *)
}

(* Collect, for one unit: binding shells (prefix-qualified), the ident->key
   resolution map for same-unit references, local module aliases, and type
   declarations. *)
let scan_unit (u : Cmt_loader.unit_info) ~wrappers =
  let shells = ref [] in
  let ident_keys = ref [] in
  let aliases = ref SMap.empty in
  let types = ref [] in
  let init_count = ref 0 in
  let rec scan_items prefix items =
    List.iter (fun (item : Typedtree.structure_item) -> scan_item prefix item) items
  and scan_item prefix (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match pattern_vars vb.vb_pat with
          | [] ->
            (* [let () = ...] module initialisation: still a node, so entry
               directories cover their side-effecting toplevel code. *)
            incr init_count;
            let name = Printf.sprintf "(init-%d)" !init_count in
            shells :=
              {
                s_key = prefix ^ name;
                s_name = name;
                s_loc = vb.vb_loc;
                s_expr = vb.vb_expr;
                s_idents = [];
              }
              :: !shells
          | (_, first) :: _ as vars ->
            let key = prefix ^ first in
            let idents = List.map fst vars in
            List.iter (fun (id, _) -> ident_keys := (id, key) :: !ident_keys) vars;
            shells :=
              {
                s_key = key;
                s_name = first;
                s_loc = vb.vb_loc;
                s_expr = vb.vb_expr;
                s_idents = idents;
              }
              :: !shells)
        vbs
    | Tstr_module mb -> scan_module prefix mb
    | Tstr_recmodule mbs -> List.iter (scan_module prefix) mbs
    | Tstr_type (_, decls) ->
      List.iter
        (fun (d : Typedtree.type_declaration) ->
          types := (prefix ^ d.typ_name.txt, d.typ_type) :: !types)
        decls
    | _ -> ()
  and scan_module prefix (mb : Typedtree.module_binding) =
    let name = match mb.mb_id with Some id -> Some (Ident.name id) | None -> None in
    match name with
    | None -> ()
    | Some name -> (
      let rec strip (me : Typedtree.module_expr) =
        match me.mod_desc with
        | Tmod_constraint (me, _, _, _) -> strip me
        | desc -> desc
      in
      match strip mb.mb_expr with
      | Tmod_ident (path, _) ->
        let target = normalize ~wrappers ~aliases:!aliases (flatten_path path) in
        aliases := SMap.add name target !aliases
      | Tmod_structure str -> scan_items (prefix ^ name ^ ".") str.str_items
      | Tmod_functor (_, body) -> (
        (* Definitions inside a functor body are ordinary nodes (their
           references to the functor parameter roll up as unresolved
           locals). Applications of the functor are not expanded: a
           reference through [F(M).g] keeps its own normalised key with
           no definition behind it, which every graph walk tolerates. *)
        match strip body with
        | Tmod_structure str -> scan_items (prefix ^ name ^ ".") str.str_items
        | _ -> ())
      | _ -> ())
  in
  scan_items (u.base ^ ".") u.structure.str_items;
  (List.rev !shells, !ident_keys, !aliases, List.rev !types)

(* ------------------------------------------------------------------ *)
(* Pass 2: reference and raise collection per definition               *)
(* ------------------------------------------------------------------ *)

let is_internal_name n = String.length n > 0 && n.[0] = '*'

(* Exception constructor names matched by a handler pattern; "*" for
   patterns that catch everything. *)
let rec handler_names : type k. k Typedtree.general_pattern -> string list =
 fun pat ->
  match pat.pat_desc with
  | Tpat_construct (lid, _, _, _) -> (
    match List.rev (Longident.flatten lid.txt) with last :: _ -> [ last ] | [] -> [])
  | Tpat_or (a, b, _) -> handler_names a @ handler_names b
  | Tpat_alias (p, _, _) -> handler_names p
  | Tpat_value p -> handler_names (p :> Typedtree.value Typedtree.general_pattern)
  | Tpat_exception p -> handler_names p
  | _ -> [ "*" ]

(* Exception names caught by the exception cases of a [match]. *)
let match_exception_names cases =
  List.concat_map
    (fun (c : Typedtree.computation Typedtree.case) ->
      let rec exn_parts : Typedtree.computation Typedtree.general_pattern -> string list
          =
       fun pat ->
        match pat.pat_desc with
        | Tpat_exception p -> handler_names p
        | Tpat_or (a, b, _) -> exn_parts a @ exn_parts b
        | _ -> []
      in
      exn_parts c.c_lhs)
    cases

let collect_body ~resolve_ident ~normalize_segs (expr : Typedtree.expression) =
  let refs = ref [] in
  let raises = ref [] in
  let record_ref caught (e : Typedtree.expression) path (lid : _ Location.loc) =
    let segments = flatten_path path in
    match segments with
    | [ n ] when is_internal_name n -> ()
    | _ ->
      let target =
        match path with
        | Path.Pident id -> (
          match resolve_ident id with
          | Some key -> Some key
          | None -> None (* locals roll up into the enclosing definition *))
        | _ -> Some (key_of (normalize_segs segments))
      in
      (match target with
      | Some target when not lid.loc.Location.loc_ghost ->
        refs := { target; ref_loc = lid.loc; typ = e.exp_type; caught } :: !refs
      | _ -> ())
  in
  let rec walk caught (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (path, lid, _) -> record_ref caught e path lid
    | Texp_try (body, cases) ->
      let caught' =
        List.concat_map (fun (c : _ Typedtree.case) -> handler_names c.c_lhs) cases
        @ caught
      in
      walk caught' body;
      List.iter
        (fun (c : _ Typedtree.case) ->
          Option.iter (walk caught) c.c_guard;
          walk caught c.c_rhs)
        cases
    | Texp_match (scrut, cases, _) ->
      let caught' = match_exception_names cases @ caught in
      walk caught' scrut;
      List.iter
        (fun (c : _ Typedtree.case) ->
          Option.iter (walk caught) c.c_guard;
          walk caught c.c_rhs)
        cases
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args)
      when match key_of (normalize_segs (flatten_path p)) with
           | "raise" | "raise_notrace" -> true
           | _ -> false -> (
      (* Keep the reference to raise itself (harmless) and record the site. *)
      (match f.exp_desc with
      | Texp_ident (path, lid, _) -> record_ref caught f path lid
      | _ -> ());
      match args with
      | [ (_, Some arg) ] -> (
        match arg.exp_desc with
        | Texp_construct (lid, _, payload) ->
          let written = String.concat "." (Longident.flatten lid.txt) in
          let exn =
            match List.rev (Longident.flatten lid.txt) with
            | last :: _ -> last
            | [] -> "*"
          in
          raises :=
            { exn; written; raise_loc = lid.loc; raise_caught = caught } :: !raises;
          List.iter (walk caught) payload
        | _ ->
          raises :=
            {
              exn = "*";
              written = "a computed exception";
              raise_loc = arg.exp_loc;
              raise_caught = caught;
            }
            :: !raises;
          walk caught arg)
      | args -> List.iter (fun (_, a) -> Option.iter (walk caught) a) args)
    | _ ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _sub child -> walk caught child);
        }
      in
      Tast_iterator.default_iterator.expr it e
  in
  walk [] expr;
  (List.rev !refs, List.rev !raises)

(* ------------------------------------------------------------------ *)
(* Graph assembly                                                      *)
(* ------------------------------------------------------------------ *)

let build (units : Cmt_loader.unit_info list) =
  let wrappers =
    List.fold_left
      (fun acc (u : Cmt_loader.unit_info) ->
        match Cmt_loader.wrapper_of_modname u.modname with
        | Some w -> SSet.add w acc
        | None -> acc)
      SSet.empty units
  in
  let scanned = List.map (fun u -> (u, scan_unit u ~wrappers)) units in
  let types_by_key =
    List.fold_left
      (fun acc (_, (_, _, _, types)) ->
        List.fold_left
          (fun acc (k, d) -> if SMap.mem k acc then acc else SMap.add k d acc)
          acc types)
      SMap.empty scanned
  in
  let defs =
    List.concat_map
      (fun ((u : Cmt_loader.unit_info), (shells, ident_keys, aliases, _)) ->
        let resolve_ident id =
          List.find_map
            (fun (id', key) -> if Ident.same id id' then Some key else None)
            ident_keys
        in
        let normalize_segs = normalize ~wrappers ~aliases in
        List.map
          (fun s ->
            let refs, raises = collect_body ~resolve_ident ~normalize_segs s.s_expr in
            {
              key = s.s_key;
              def_name = s.s_name;
              source = u.source;
              unit_base = u.base;
              def_loc = s.s_loc;
              refs;
              raises;
              body = Some s.s_expr;
            })
          shells)
      scanned
  in
  let by_key =
    List.fold_left
      (fun acc d -> if SMap.mem d.key acc then acc else SMap.add d.key d acc)
      SMap.empty defs
  in
  let idents =
    List.fold_left
      (fun acc (_, (_, ident_keys, _, _)) ->
        List.fold_left (fun acc (id, key) -> IMap.add id key acc) acc ident_keys)
      IMap.empty scanned
  in
  { defs; by_key; types_by_key; wrappers; idents }

let find t key = SMap.find_opt key t.by_key

let resolve_ident t id = IMap.find_opt id t.idents

(* Normalised key of a reference path outside any local-alias context: the
   cross-unit spelling rules only (wrapper modules, [Stdlib], mangling). *)
let normalize_path t path =
  key_of (normalize ~wrappers:t.wrappers ~aliases:SMap.empty (flatten_path path))

(* Resolve a type path seen at a use site to its project declaration.
   [owner] is the dotted module context of the site (or of the declaration
   being expanded), so bare [Pident] type names resolve within their own
   module first. Returns the resolved key so recursive expansion can update
   its owner. *)
let find_type t ~owner segments =
  let segments = normalize ~wrappers:t.wrappers ~aliases:SMap.empty segments in
  let candidates =
    match segments with
    | [ n ] -> [ owner ^ "." ^ n; n ]
    | _ -> [ key_of segments ]
  in
  List.find_map
    (fun key ->
      match SMap.find_opt key t.types_by_key with
      | Some decl -> Some (key, decl)
      | None -> None)
    candidates

(* ------------------------------------------------------------------ *)
(* Graph walks                                                         *)
(* ------------------------------------------------------------------ *)

(* The interprocedural rules are transfer functions over the three walks
   below. The walks own the visiting order (defs order, then ref order),
   so rule output stays deterministic without each rule re-deriving it. *)

let dir_prefix dir path = String.starts_with ~prefix:(dir ^ "/") path

let path_head target =
  match String.index_opt target '.' with
  | Some i -> String.sub target 0 i
  | None -> target

(* Bindings of one key share a unit, so the binding's offset tells them apart. *)
let is_first_binding t d =
  match find t d.key with
  | Some first -> Int.equal first.def_loc.loc_start.pos_cnum d.def_loc.loc_start.pos_cnum
  | None -> false

let reach t ~entry visit =
  let entries =
    List.filter entry t.defs
    |> List.map (fun d -> d.key)
    |> List.sort_uniq String.compare
  in
  let visited = ref (SSet.of_list entries) in
  let queue = Queue.create () in
  List.iter (fun k -> Queue.push (k, [ k ]) queue) entries;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let key, chain = Queue.pop queue in
    match find t key with
    | None -> ()
    | Some d ->
      out := List.rev_append (visit d (List.rev chain)) !out;
      List.iter
        (fun r ->
          if SMap.mem r.target t.by_key && not (SSet.mem r.target !visited) then begin
            visited := SSet.add r.target !visited;
            Queue.push (r.target, r.target :: chain) queue
          end)
        d.refs
  done;
  List.rev !out

let fixpoint ?max_rounds t ~init ~bot ~equal ~step =
  let values = ref init in
  let changed = ref true in
  let rounds = ref 0 in
  let capped () = match max_rounds with Some m -> !rounds >= m | None -> false in
  while !changed && not (capped ()) do
    incr rounds;
    changed := false;
    List.iter
      (fun d ->
        let cur = Option.value (SMap.find_opt d.key !values) ~default:bot in
        match step !values d cur with
        | None -> ()
        | Some next ->
          if not (equal cur next) then begin
            values := SMap.add d.key next !values;
            changed := true
          end)
      t.defs
  done;
  !values

let witness t key ~direct ~carries =
  let rec go seen key =
    match find t key with
    | None -> None
    | Some d -> (
      match direct d with
      | Some w -> Some ([ key ], w)
      | None ->
        List.find_map
          (fun r ->
            if SMap.mem r.target t.by_key && (not (SSet.mem r.target seen)) && carries r
            then
              Option.map
                (fun (chain, w) -> (key :: chain, w))
                (go (SSet.add r.target seen) r.target)
            else None)
          d.refs)
  in
  go (SSet.singleton key) key
