(* RNG stream discipline: a stream returned by Prng.Rng.split is a linear
   resource — drawing from the same child stream at two places couples
   their sequences, which silently breaks bit-for-bit replay the moment one
   consumer's draw count changes. The rule approximates linearity per
   let-binding: a variable bound to the result of [Rng.split] may be
   consumed at most once along any execution path. Uses on the two arms of
   a conditional count as alternatives (max); uses in sequence add; a use
   under a lambda or loop body counts double, because the body may run any
   number of times. Aliasing ([let alias = s in ...]) is itself a use, so
   alias-then-use is flagged. *)

let rule_id = "rng-stream-discipline"

let severity = Finding.Error

let hint =
  "split once per consumer (each child stream has exactly one owner); re-using or \
   aliasing a child couples draw sequences and silently breaks replay. If the reuse \
   is deliberate, suppress with [@lint.allow \"rng-stream-discipline\" \"why\"]"

(* Does this application produce a fresh stream? Matched on the normalised
   callee key suffix so both [Rng.split] and [Lopc_prng.Rng.split] (and a
   fixture's local [Rng] module) qualify. *)
let is_split_callee key =
  key = "Rng.split"
  ||
  let suffix = ".Rng.split" in
  let n = String.length key and m = String.length (suffix : string) in
  n > m && String.sub key (n - m) m = suffix

(* Maximum number of uses of [id] along any execution path through [e]. *)
let rec max_uses id (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Pident i, _, _) -> if Ident.same i id then 1 else 0
  | Texp_ifthenelse (cond, then_, else_) ->
    max_uses id cond
    + Stdlib.max (max_uses id then_)
        (match else_ with Some e -> max_uses id e | None -> 0)
  | Texp_match (scrut, cases, _) ->
    max_uses id scrut + max_over_cases id cases
  | Texp_try (body, cases) -> Stdlib.max (max_uses id body) (max_over_cases id cases)
  | Texp_function { cases; _ } ->
    (* The closure may be applied any number of times. *)
    2 * max_over_cases id cases
  | Texp_while (cond, body) -> max_uses id cond + (2 * max_uses id body)
  | Texp_for (_, _, lo, hi, _, body) ->
    max_uses id lo + max_uses id hi + (2 * max_uses id body)
  | _ ->
    (* Sequential composition: sum over immediate children. *)
    let acc = ref 0 in
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _sub child -> acc := !acc + max_uses id child);
      }
    in
    Tast_iterator.default_iterator.expr it e;
    !acc

and max_over_cases : type k. Ident.t -> k Typedtree.case list -> int =
 fun id cases ->
  List.fold_left
    (fun acc (c : _ Typedtree.case) ->
      let g = match c.c_guard with Some g -> max_uses id g | None -> 0 in
      Stdlib.max acc (g + max_uses id c.c_rhs))
    0 cases

(* All textual use sites of [id], for the finding message. *)
let use_sites id (e : Typedtree.expression) =
  let sites = ref [] in
  let rec walk (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Pident i, lid, _) when Ident.same i id -> sites := lid.loc :: !sites
    | _ -> ());
    let it = { Tast_iterator.default_iterator with expr = (fun _sub c -> walk c) } in
    Tast_iterator.default_iterator.expr it e
  in
  walk e;
  List.rev !sites

let check_def ~normalize_key (d : Callgraph.def) =
  match d.Callgraph.body with
  | None -> []
  | Some body ->
    let findings = ref [] in
    let rec walk (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_let (Nonrecursive, vbs, cont) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | ( Tpat_var (id, name),
                Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, _) )
              when is_split_callee (normalize_key path) ->
              let uses = max_uses id cont in
              if uses >= 2 then begin
                let lines =
                  use_sites id cont
                  |> List.map (fun (l : Location.t) ->
                         string_of_int l.loc_start.pos_lnum)
                in
                let message =
                  Printf.sprintf
                    "stream `%s` (from %s) is consumed %d times along one path in %s \
                     (uses at line%s %s); each split child must have exactly one \
                     consumer"
                    name.txt
                    (normalize_key path) uses d.Callgraph.key
                    (if List.length lines = 1 then "" else "s")
                    (String.concat ", " lines)
                in
                findings :=
                  Finding.v ~rule:rule_id ~severity ~loc:vb.vb_loc ~message ~hint
                  :: !findings
              end
            | _ -> ())
          vbs
      | _ -> ());
      let it = { Tast_iterator.default_iterator with expr = (fun _sub c -> walk c) } in
      Tast_iterator.default_iterator.expr it e
    in
    walk body;
    List.rev !findings

let check (graph : Callgraph.t) =
  let normalize_key path =
    Callgraph.key_of
      (Callgraph.normalize ~wrappers:graph.Callgraph.wrappers
         ~aliases:Callgraph.SMap.empty (Callgraph.flatten_path path))
  in
  List.concat_map (check_def ~normalize_key) graph.defs
