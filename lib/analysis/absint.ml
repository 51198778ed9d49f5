(* Flow-sensitive interval abstract interpretation over typed trees.

   Two passes share one evaluator. The first ([analyze]) computes
   interprocedural return-value summaries by chaotic iteration with
   widening: every definition's body is evaluated in an environment
   seeding its parameters from their [@lopc.*] annotations (top when
   unannotated), and the resulting value is widened against the previous
   round until nothing changes. The second ([check]) replays each body
   once against the stable summaries with reporting switched on and
   collects numeric-contract violations.

   The evaluator is deliberately partial: constructs it does not model
   (matches, tries, loops, constructors, ...) fall through to a generic
   walk that still evaluates every subexpression — so checks inside
   them fire — and abstract to top. Environments are immutable ident
   maps; OCaml bindings are immutable, so one pass over a loop body is
   sound for the bindings we track (mutable state reads through [!] or
   fields abstract to top anyway). Branches refine: a comparison that
   holds meets the tested variable with the matching half-line (strict
   bounds through [Float.pred]/[succ], NaN cleared because no comparison
   holds on NaN), a branch that raises evaluates to bottom and so
   contributes nothing to the join. *)

module SMap = Callgraph.SMap
module SSet = Callgraph.SSet
module IMap = Callgraph.IMap

type value = { itv : Interval.t; vanishing : bool; uom : string option }

type violation = { v_rule : string; v_loc : Location.t; v_message : string }

type param = {
  p_arg : Asttypes.arg_label;
  p_display : string;
  p_annots : Annot.t list;
}

type t = {
  graph : Callgraph.t;
  summaries : value SMap.t;
  params : param list SMap.t;
}

let top_value = { itv = Interval.top; vanishing = false; uom = None }
let bot_value = { itv = Interval.bot; vanishing = false; uom = None }
let num itv = { itv; vanishing = false; uom = None }

let uom_join a b =
  match (a.uom, b.uom) with
  | Some ua, Some ub when String.equal ua ub -> Some ua
  | Some u, None when Interval.is_bot b.itv -> Some u
  | None, Some u when Interval.is_bot a.itv -> Some u
  | _ -> None

let join_value a b =
  {
    itv = Interval.join a.itv b.itv;
    vanishing = a.vanishing || b.vanishing;
    uom = uom_join a b;
  }

let widen_value old next =
  {
    itv = Interval.widen old.itv next.itv;
    vanishing = old.vanishing || next.vanishing;
    uom = uom_join old next;
  }

let value_equal a b =
  Interval.equal a.itv b.itv
  && Bool.equal a.vanishing b.vanishing
  && Option.equal String.equal a.uom b.uom

let value_of_annots annots =
  let itv =
    List.fold_left
      (fun acc a ->
        match Annot.interval a with Some i -> Interval.meet acc i | None -> acc)
      Interval.top annots
  in
  { itv; vanishing = false; uom = Annot.unit_of annots }

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

type state = {
  graph : Callgraph.t;
  mutable summaries : value SMap.t;
  mutable params : param list SMap.t;
  mutable violations : violation list;
  reporting : bool;
  mutable quiet : bool;  (* re-evaluations (guard bounds) must not re-emit *)
}

let emit st ~rule ~loc message =
  if st.reporting && not st.quiet then
    st.violations <- { v_rule = rule; v_loc = loc; v_message = message } :: st.violations

let quietly st f =
  let saved = st.quiet in
  st.quiet <- true;
  let r = f () in
  st.quiet <- saved;
  r

let path_key st path =
  match path with
  | Path.Pident id -> (
    match Callgraph.resolve_ident st.graph id with
    | Some key -> key
    | None -> Callgraph.normalize_path st.graph path)
  | _ -> Callgraph.normalize_path st.graph path

let type_head (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    match List.rev (Callgraph.flatten_path p) with
    | last :: _ -> Some last
    | [] -> None)
  | _ -> None

let is_int_type ty =
  match type_head ty with Some "int" -> true | _ -> false

let is_arrow_type ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let const_float (c : Asttypes.constant) =
  match c with
  | Asttypes.Const_int n -> Some (float_of_int n)
  | Asttypes.Const_float s -> float_of_string_opt s
  | Asttypes.Const_int32 n -> Some (Int32.to_float n)
  | Asttypes.Const_int64 n -> Some (Int64.to_float n)
  | Asttypes.Const_nativeint n -> Some (Nativeint.to_float n)
  | Asttypes.Const_char _ | Asttypes.Const_string _ -> None

(* Callees that never return: their application evaluates to bottom, so
   an [if u >= 1. then invalid_arg "..." else ...] branch contributes
   nothing to the join and the else-branch refinement survives. *)
let raising_keys =
  SSet.of_list [ "raise"; "raise_notrace"; "invalid_arg"; "failwith"; "exit" ]

(* A statement-position expression that always raises: the guard shapes
   [if bad then invalid_arg "..."] refine the code after them. *)
let rec always_raises st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    SSet.mem (path_key st p) raising_keys
  | Texp_assert
      ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ }, _)
    ->
    true
  | Texp_let (_, _, e) | Texp_sequence (_, e) -> always_raises st e
  | Texp_ifthenelse (_, a, Some b) -> always_raises st a && always_raises st b
  | _ -> false

let rec pattern_binding (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, name) -> Some (id, name.txt, p.pat_attributes)
  | Typedtree.Tpat_alias (inner, id, name) -> (
    match pattern_binding inner with
    | Some (_, _, attrs) -> Some (id, name.txt, p.pat_attributes @ attrs)
    | None -> Some (id, name.txt, p.pat_attributes))
  | _ -> None

let display_of_label (lbl : Asttypes.arg_label) name =
  match lbl with
  | Asttypes.Nolabel -> name
  | Asttypes.Labelled l -> "~" ^ l
  | Asttypes.Optional l -> "?" ^ l

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let summary_value st key =
  match SMap.find_opt key st.summaries with
  | Some v -> v
  | None -> (
    match Callgraph.find st.graph key with
    | Some { body = Some _; _ } -> bot_value (* not yet reached this round *)
    | Some { body = None; _ } | None -> top_value)

let rec eval st env (e : Typedtree.expression) : value =
  match e.exp_desc with
  | Texp_constant c -> (
    match const_float c with
    | Some f -> num (Interval.const f)
    | None -> top_value)
  | Texp_ident (Path.Pident id, _, _) when IMap.mem id env -> IMap.find id env
  | Texp_ident (path, _, _) ->
    if is_arrow_type e.exp_type then top_value
    else summary_value st (path_key st path)
  | Texp_let (_, vbs, body) ->
    let env = List.fold_left (bind_vb st) env vbs in
    eval st env body
  | Texp_sequence (a, b) ->
    let env = eval_statement st env a in
    eval st env b
  | Texp_ifthenelse (cond, th, el) -> (
    ignore (eval st env cond);
    let vt = eval st (constrain st env cond ~holds:true) th in
    match el with
    | Some el ->
      let ve = eval st (constrain st env cond ~holds:false) el in
      join_value vt ve
    | None -> top_value)
  | Texp_function { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
    -> (
    (* A nested lambda: bind its parameter (annotation-seeded) and keep
       walking; the closure itself abstracts to top. *)
    match pattern_binding c_lhs with
    | Some (id, _, attrs) ->
      let annots = Annot.of_attributes attrs in
      let v = if annots = [] then top_value else value_of_annots annots in
      ignore (eval st (IMap.add id v env) c_rhs);
      ignore arg_label;
      top_value
    | None ->
      ignore (eval st env c_rhs);
      top_value)
  | Texp_apply (fn, args) -> eval_apply st env e fn args
  | Texp_field (obj, _, lbl) ->
    ignore (eval st env obj);
    let annots = Annot.of_attributes lbl.Types.lbl_attributes in
    if annots = [] then top_value else value_of_annots annots
  | Texp_setfield (obj, _, lbl, rhs) ->
    ignore (eval st env obj);
    let v = eval st env rhs in
    check_annotated st
      ~what:(Printf.sprintf "field %s" lbl.Types.lbl_name)
      ~loc:rhs.exp_loc
      (Annot.of_attributes lbl.Types.lbl_attributes)
      v;
    top_value
  | Texp_record { fields; extended_expression } ->
    Option.iter (fun ee -> ignore (eval st env ee)) extended_expression;
    Array.iter
      (fun ((lbl : Types.label_description), defn) ->
        match defn with
        | Typedtree.Overridden (_, ex) ->
          let v = eval st env ex in
          check_annotated st
            ~what:(Printf.sprintf "field %s" lbl.lbl_name)
            ~loc:ex.exp_loc
            (Annot.of_attributes lbl.lbl_attributes)
            v
        | Typedtree.Kept _ -> ())
      fields;
    top_value
  | _ -> generic st env e

(* Unhandled constructs: evaluate every child (so checks inside fire
   exactly once) and abstract to top. *)
and generic st env (e : Typedtree.expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _sub child -> ignore (eval st env child));
    }
  in
  Tast_iterator.default_iterator.expr it e;
  top_value

and eval_statement st env (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_ifthenelse (cond, th, None) when always_raises st th ->
    ignore (eval st env cond);
    ignore (eval st (constrain st env cond ~holds:true) th);
    constrain st env cond ~holds:false
  | Texp_assert (cond, _) ->
    ignore (eval st env cond);
    constrain st env cond ~holds:true
  | _ ->
    ignore (eval st env a);
    env

and bind_vb st env (vb : Typedtree.value_binding) =
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | (Typedtree.Tpat_any | Typedtree.Tpat_construct _), _ ->
    eval_statement st env vb.vb_expr
  | _ -> (
    let v = eval st env vb.vb_expr in
    match pattern_binding vb.vb_pat with
    | Some (id, name, attrs) ->
      let annots = Annot.of_attributes attrs in
      let v =
        if annots = [] then v
        else begin
          check_annotated st ~what:(Printf.sprintf "binding %s" name)
            ~loc:vb.vb_expr.exp_loc annots v;
          (* after the check the annotation acts as an assume *)
          let want = value_of_annots annots in
          {
            itv = Interval.meet v.itv want.itv;
            vanishing = v.vanishing;
            uom = (match want.uom with Some _ as u -> u | None -> v.uom);
          }
        end
      in
      IMap.add id v env
    | None -> env)

and eval_apply st env (e : Typedtree.expression) fn args =
  let key =
    match fn.exp_desc with
    | Texp_ident (p, _, _) -> Some (path_key st p)
    | _ ->
      ignore (eval st env fn);
      None
  in
  match (key, args) with
  | Some "&&", [ (_, Some a); (_, Some b) ] ->
    ignore (eval st env a);
    ignore (eval st (constrain st env a ~holds:true) b);
    top_value
  | Some "||", [ (_, Some a); (_, Some b) ] ->
    ignore (eval st env a);
    ignore (eval st (constrain st env a ~holds:false) b);
    top_value
  | Some (("+." | "+" | "-." | "-" | "*." | "*" | "/." | "/") as op),
    [ (_, Some a); (_, Some b) ] ->
    let va = eval st env a and vb = eval st env b in
    arith st op ~site:e.exp_loc ~denom:b va vb
  | Some (("min" | "max" | "Float.min" | "Float.max") as op),
    [ (_, Some a); (_, Some b) ] ->
    let va = eval st env a and vb = eval st env b in
    let f = match op with "min" | "Float.min" -> Interval.min_ | _ -> Interval.max_ in
    { itv = f va.itv vb.itv;
      vanishing = va.vanishing || vb.vanishing;
      uom = uom_join va vb }
  | Some ("~-." | "~-"), [ (_, Some a) ] ->
    let va = eval st env a in
    { va with itv = Interval.neg va.itv }
  | Some ("abs_float" | "Float.abs" | "abs"), [ (_, Some a) ] ->
    let va = eval st env a in
    { va with itv = Interval.abs va.itv }
  | Some ("sqrt" | "Float.sqrt"), [ (_, Some a) ] ->
    let va = eval st env a in
    num (Interval.sqrt_ va.itv)
  | Some ("exp" | "Float.exp"), [ (_, Some a) ] ->
    let va = eval st env a in
    num (Interval.exp_ va.itv)
  | Some ("float_of_int" | "Float.of_int"), [ (_, Some a) ] -> eval st env a
  | Some ("int_of_float" | "truncate" | "Float.to_int"), [ (_, Some a) ] ->
    let va = eval st env a in
    (* truncation moves toward zero, so the hull with 0 is sound *)
    num (Interval.join va.itv (Interval.const 0.))
  | Some key, _ when SSet.mem key raising_keys ->
    List.iter (fun (_, a) -> Option.iter (fun a -> ignore (eval st env a)) a) args;
    bot_value
  | Some key, _ ->
    let argv =
      List.map (fun (lbl, a) -> (lbl, a, Option.map (eval st env) a)) args
    in
    check_call st env key argv;
    if is_arrow_type e.exp_type then top_value else summary_value st key
  | None, _ ->
    List.iter (fun (_, a) -> Option.iter (fun a -> ignore (eval st env a)) a) args;
    top_value

and arith st op ~site ~denom va vb =
  (match op with
  | "+." | "-." | "+" | "-" -> (
    match (va.uom, vb.uom) with
    | Some ua, Some ub when not (String.equal ua ub) ->
      emit st ~rule:"unit-mismatch" ~loc:site
        (Printf.sprintf
           "mixing values in unit %S and unit %S additively; convert one side \
            explicitly"
           ua ub)
    | _ -> ())
  | _ -> ());
  match op with
  | "+." | "+" ->
    {
      itv = Interval.add va.itv vb.itv;
      vanishing = va.vanishing || vb.vanishing;
      uom = uom_join va vb;
    }
  | "-." ->
    (* Float subtraction is where cancellation lives: the result is the
       vanishing-denominator candidate of the [1. - u] family. Integer
       subtraction ([n - 1] node counts) is deliberately excluded. *)
    {
      itv = Interval.sub va.itv vb.itv;
      vanishing = true;
      uom = uom_join va vb;
    }
  | "-" ->
    {
      itv = Interval.sub va.itv vb.itv;
      vanishing = va.vanishing || vb.vanishing;
      uom = uom_join va vb;
    }
  | "*." | "*" ->
    {
      itv = Interval.mul va.itv vb.itv;
      vanishing = va.vanishing || vb.vanishing;
      uom = None;
    }
  | "/." ->
    if vb.vanishing && Interval.contains_zero vb.itv then
      emit st ~rule:"division-by-vanishing" ~loc:denom.Typedtree.exp_loc
        (Printf.sprintf
           "denominator is subtraction-shaped with interval %s, which contains \
            0; the division can produce inf or NaN"
           (Interval.to_string vb.itv));
    { itv = Interval.div va.itv vb.itv; vanishing = va.vanishing; uom = None }
  | _ ->
    (* integer division truncates, which corner evaluation does not
       bracket; stay at top *)
    top_value

and check_annotated st ~what ~loc annots (v : value) =
  if annots <> [] then begin
    List.iter
      (fun a ->
        match Annot.interval a with
        | Some want when not (Interval.leq v.itv want) ->
          emit st ~rule:(Annot.rule_id a) ~loc
            (Printf.sprintf "%s is declared %s but a value with interval %s \
                             flows in"
               what (Annot.describe a)
               (Interval.to_string v.itv))
        | Some _ | None -> ())
      annots;
    match (Annot.unit_of annots, v.uom) with
    | Some want, Some got when not (String.equal want got) ->
      emit st ~rule:"unit-mismatch" ~loc
        (Printf.sprintf "%s is declared in unit %S but a value in unit %S \
                         flows in"
           what want got)
    | _ -> ()
  end

and check_call st env key argv =
  if st.reporting then
    match SMap.find_opt key st.params with
    | None -> ()
    | Some params ->
      let parr = Array.of_list params in
      let used = Array.make (Array.length parr) false in
      let claim pred =
        let found = ref None in
        Array.iteri
          (fun i p ->
            match !found with
            | Some _ -> ()
            | None -> if (not used.(i)) && pred p then found := Some i)
          parr;
        Option.iter (fun i -> used.(i) <- true) !found;
        !found
      in
      List.iter
        (fun ((lbl : Asttypes.arg_label), argo, vo) ->
          let pio =
            match lbl with
            | Asttypes.Nolabel ->
              claim (fun p ->
                  match p.p_arg with Asttypes.Nolabel -> true | _ -> false)
            | Asttypes.Labelled l | Asttypes.Optional l ->
              claim (fun p ->
                  match p.p_arg with
                  | Asttypes.Labelled l' | Asttypes.Optional l' ->
                    String.equal l l'
                  | Asttypes.Nolabel -> false)
          in
          match (pio, argo, vo) with
          | Some pi, Some (argexp : Typedtree.expression), Some v
            when parr.(pi).p_annots <> [] ->
            let p = parr.(pi) in
            (* the typechecker wraps an applied optional in [Some] *)
            let argexp, v =
              match (p.p_arg, argexp.exp_desc) with
              | Asttypes.Optional _,
                Texp_construct (_, { cstr_name = "Some"; _ }, [ inner ]) ->
                (inner, quietly st (fun () -> eval st env inner))
              | _ -> (argexp, v)
            in
            check_annotated st
              ~what:(Printf.sprintf "argument %s of %s" p.p_display key)
              ~loc:argexp.exp_loc p.p_annots v
          | _ -> ())
        argv

(* Refinement of the environment by [cond = holds]. *)
and constrain st env (cond : Typedtree.expression) ~holds =
  match cond.exp_desc with
  | Texp_apply
      ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some a); (_, Some b) ])
    -> (
    let op = path_key st p in
    match op with
    | "&&" ->
      if holds then constrain st (constrain st env a ~holds:true) b ~holds:true
      else env
    | "||" ->
      if holds then env
      else constrain st (constrain st env a ~holds:false) b ~holds:false
    | "<" | "<=" | ">" | ">=" | "=" | "Float.equal" | "Int.equal" ->
      let env = refine_side st env ~this:a ~other:b ~op ~holds ~swap:false in
      refine_side st env ~this:b ~other:a ~op ~holds ~swap:true
    | _ -> env)
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some a) ]) -> (
    match path_key st p with
    | "not" -> constrain st env a ~holds:(not holds)
    | "Float.is_finite" when holds -> (
      (* [Float.is_finite x] holding excludes NaN and both infinities. *)
      match a.Typedtree.exp_desc with
      | Texp_ident (Path.Pident id, _, _) when IMap.mem id env ->
        let cur = IMap.find id env in
        let finite = Interval.v (-.Float.max_float) Float.max_float in
        IMap.add id { cur with itv = Interval.meet cur.itv finite } env
      | _ -> env)
    | _ -> env)
  | _ -> env

and refine_side st env ~this ~other ~op ~holds ~swap =
  match this.Typedtree.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when IMap.mem id env -> (
    let cur = IMap.find id env in
    let bv = quietly st (fun () -> eval st env other) in
    let int_typed = is_int_type this.Typedtree.exp_type in
    (* the relation [this cmp other], as written *)
    let cmp =
      match (op, swap) with
      | "<", false -> `Lt
      | "<", true -> `Gt
      | "<=", false -> `Le
      | "<=", true -> `Ge
      | ">", false -> `Gt
      | ">", true -> `Lt
      | ">=", false -> `Ge
      | ">=", true -> `Le
      | _ -> `Eq
    in
    match (bv.itv : Interval.t).range with
    | None ->
      (* [other] is NaN-only or unreachable: no comparison with it ever
         holds *)
      if holds then IMap.add id { cur with itv = Interval.bot } env else env
    | Some (blo, bhi) ->
      if holds then
        let itv =
          match cmp with
          | `Eq ->
            (* this = other and other is not NaN here *)
            Interval.meet cur.itv (Interval.v blo bhi)
          | `Lt | `Le ->
            (* this < other <= bhi *)
            Interval.refine cur.itv ~cmp ~bound:bhi ~int_typed ~keep_nan:false
          | `Gt | `Ge ->
            Interval.refine cur.itv ~cmp ~bound:blo ~int_typed ~keep_nan:false
        in
        IMap.add id { cur with itv } env
      else if Interval.may_nan bv.itv then
        (* the negation of a comparison against a possibly-NaN value
           carries no information *)
        env
      else
        let itv =
          match cmp with
          | `Eq -> cur.itv (* x <> y: nothing exploitable *)
          | `Lt ->
            (* not (this < other): this >= other >= blo, or this is NaN *)
            Interval.refine cur.itv ~cmp:`Ge ~bound:blo ~int_typed ~keep_nan:true
          | `Le ->
            Interval.refine cur.itv ~cmp:`Gt ~bound:blo ~int_typed ~keep_nan:true
          | `Gt ->
            Interval.refine cur.itv ~cmp:`Le ~bound:bhi ~int_typed ~keep_nan:true
          | `Ge ->
            Interval.refine cur.itv ~cmp:`Lt ~bound:bhi ~int_typed ~keep_nan:true
        in
        IMap.add id { cur with itv } env)
  | _ -> env

(* ------------------------------------------------------------------ *)
(* Definitions and fixpoint                                            *)
(* ------------------------------------------------------------------ *)

(* Peel the leading single-case lambdas off a definition body: bind each
   parameter to its annotation seed and record it for call-site checks. *)
let rec peel st env acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
    -> (
    match pattern_binding c_lhs with
    | Some (id, name, attrs) ->
      let annots = Annot.of_attributes attrs in
      let v = if annots = [] then top_value else value_of_annots annots in
      let p =
        {
          p_arg = arg_label;
          p_display = display_of_label arg_label name;
          p_annots = annots;
        }
      in
      peel st (IMap.add id v env) (p :: acc) c_rhs
    | None ->
      let p =
        { p_arg = arg_label; p_display = display_of_label arg_label "_";
          p_annots = [] }
      in
      peel st env (p :: acc) c_rhs)
  | _ -> (env, List.rev acc, e)

let def_value st (d : Callgraph.def) =
  match d.body with
  | None -> None
  | Some body ->
    let env, params, inner = peel st IMap.empty [] body in
    st.params <- SMap.add d.key params st.params;
    Some (eval st env inner)

let max_rounds = 50

let fresh_state ~reporting graph summaries params =
  { graph; summaries; params; violations = []; reporting; quiet = false }

(* Only the first binding of a shadowed key is evaluated. The step reads
   callee summaries through [st.summaries], so it points the state at the
   fixpoint's current values first. *)
let analyze graph =
  let st = fresh_state ~reporting:false graph SMap.empty SMap.empty in
  let summaries =
    Callgraph.fixpoint ~max_rounds graph ~init:SMap.empty ~bot:bot_value
      ~equal:value_equal ~step:(fun summaries d cur ->
        if not (Callgraph.is_first_binding graph d) then None
        else begin
          st.summaries <- summaries;
          Option.map (widen_value cur) (def_value st d)
        end)
  in
  { graph; summaries; params = st.params }

let check (t : t) =
  let st = fresh_state ~reporting:true t.graph t.summaries t.params in
  List.iter
    (fun d -> if Callgraph.is_first_binding t.graph d then ignore (def_value st d))
    t.graph.defs;
  List.rev st.violations

let summary (t : t) key = SMap.find_opt key t.summaries

let print_summary ppf (t : t) key =
  match SMap.find_opt key t.summaries with
  | None -> false
  | Some ret ->
    let params = Option.value (SMap.find_opt key t.params) ~default:[] in
    Format.fprintf ppf "interval summary of %s@." key;
    List.iter
      (fun p ->
        let v =
          if p.p_annots = [] then top_value else value_of_annots p.p_annots
        in
        Format.fprintf ppf "  param %s: %s%s@." p.p_display
          (Interval.to_string v.itv)
          (match Annot.unit_of p.p_annots with
          | Some u -> " unit:" ^ u
          | None -> ""))
      params;
    Format.fprintf ppf "  return: %s%s@."
      (Interval.to_string ret.itv)
      (match ret.uom with Some u -> " unit:" ^ u | None -> "");
    true
