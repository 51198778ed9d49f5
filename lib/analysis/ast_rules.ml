module SSet = Set.Make (String)
module SMap = Map.Make (String)

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let ident_parts (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (Longident.flatten txt))
  | _ -> None

(* Every identifier mentioned in an expression, both as a full dotted path
   and as its last component, so guard conditions and denominators agree on
   how a name is spelled. *)
let idents_of (e : Parsetree.expression) =
  let acc = ref SSet.empty in
  let expr sub (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      let parts = Longident.flatten txt in
      acc := SSet.add (String.concat "." parts) !acc;
      (match List.rev parts with
      | last :: _ -> acc := SSet.add last !acc
      | [] -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !acc

(* Iterate a whole structure applying [f] to every expression. *)
let on_every_expr f structure =
  let expr sub e =
    f e;
    Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure

(* ------------------------------------------------------------------ *)
(* float-equality                                                      *)
(* ------------------------------------------------------------------ *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let stdlib_float_fns =
  [
    "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "cos"; "sin"; "tan"; "acos"; "asin";
    "atan"; "atan2"; "hypot"; "cosh"; "sinh"; "tanh"; "ceil"; "floor"; "abs_float";
    "mod_float"; "ldexp"; "float_of_int"; "float"; "float_of_string"; "copysign";
  ]

let float_module_fns =
  [
    "abs"; "neg"; "add"; "sub"; "mul"; "div"; "rem"; "fma"; "of_int"; "of_string"; "min";
    "max"; "min_num"; "max_num"; "sqrt"; "cbrt"; "exp"; "exp2"; "log"; "log10"; "log2";
    "expm1"; "log1p"; "pow"; "succ"; "pred"; "round"; "trunc"; "copy_sign"; "ldexp";
  ]

let float_module_consts =
  [
    "pi"; "epsilon"; "nan"; "infinity"; "neg_infinity"; "max_float"; "min_float"; "zero";
    "one"; "minus_one";
  ]

let returns_float fn_parts =
  match fn_parts with
  | [ op ] -> List.mem op float_ops || List.mem op stdlib_float_fns
  | [ "Float"; fn ] -> List.mem fn float_module_fns
  | _ -> false

let is_float_valued (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, _) -> (
    match ident_parts f with Some parts -> returns_float parts | None -> false)
  | Pexp_ident { txt; _ } -> (
    match strip_stdlib (Longident.flatten txt) with
    | [ "Float"; c ] -> List.mem c float_module_consts
    | [ c ] -> List.mem c [ "nan"; "infinity"; "neg_infinity"; "max_float"; "min_float"; "epsilon_float" ]
    | _ -> false)
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ })
    ->
    true
  | _ -> false

let float_equality =
  let rec rule =
    lazy
      (Rule.v ~id:"float-equality" ~severity:Finding.Warning
         ~hint:
           "compare with a tolerance (Float.abs (a -. b) < eps), use a classified-zero \
            test (Float.classify_float x = FP_zero), or Float.equal if exact equality \
            is really intended"
         ~check:(fun ~path:_ structure ->
           let findings = ref [] in
           on_every_expr
             (fun e ->
               match e.pexp_desc with
               | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
                 match ident_parts f with
                 | Some [ (("=" | "<>" | "compare") as op) ]
                   when is_float_valued a || is_float_valued b ->
                   findings :=
                     Rule.finding (Lazy.force rule) ~loc:e.pexp_loc
                       (Format.asprintf
                          "`%s` compares float-valued expressions; equality of computed \
                           floats misfires under rounding"
                          op)
                     :: !findings
                 | _ -> ())
               | _ -> ())
             structure;
           !findings))
  in
  Lazy.force rule

(* ------------------------------------------------------------------ *)
(* unguarded-division                                                  *)
(* ------------------------------------------------------------------ *)

(* The AMVA residence forms divide by saturation-shaped quantities
   (1 - U, 1 - U - U^2, ...). A division is flagged when the denominator
   is such a shape (directly or through a let-bound name) and no enclosing
   conditional mentions any identifier involved in it. *)

let is_float_lit_one (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, None)) -> (
    match float_of_string_opt s with Some v -> Float.equal v 1.0 | None -> false)
  | _ -> false

let rec is_one_minus (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "-."; _ }; _ }, [ (_, a); _ ]) ->
    is_float_lit_one a || is_one_minus a
  | _ -> false

type div_env = { guarded : SSet.t; one_minus : SSet.t SMap.t }

let empty_env = { guarded = SSet.empty; one_minus = SMap.empty }

let add_guards env cond = { env with guarded = SSet.union env.guarded (idents_of cond) }

let unguarded_division =
  let rec rule =
    lazy
      (Rule.v ~id:"unguarded-division" ~severity:Finding.Warning
         ~hint:
           "test the utilization before dividing (if u >= limit then ... else ...), \
            clamp the denominator (Float.max eps (1. -. u)), or [@lint.allow \
            \"unguarded-division\"] when a caller provably enforces the bound"
         ~check:(fun ~path:_ structure ->
           let findings = ref [] in
           let report loc =
             findings :=
               Rule.finding (Lazy.force rule) ~loc
                 "division by a saturation-shaped denominator (1. -. u) that no \
                  enclosing guard dominates; this diverges as u -> 1"
               :: !findings
           in
           let denominator_keys env (den : Parsetree.expression) =
             match den.pexp_desc with
             | Pexp_ident { txt = Lident v; _ } -> (
               match SMap.find_opt v env.one_minus with
               | Some rhs_ids -> Some (SSet.add v rhs_ids)
               | None -> None)
             | _ -> if is_one_minus den then Some (idents_of den) else None
           in
           let rec walk env (e : Parsetree.expression) =
             match e.pexp_desc with
             | Pexp_let (_, vbs, body) ->
               List.iter (fun (vb : Parsetree.value_binding) -> walk env vb.pvb_expr) vbs;
               let env =
                 List.fold_left
                   (fun env (vb : Parsetree.value_binding) ->
                     match vb.pvb_pat.ppat_desc with
                     | Ppat_var { txt; _ } when is_one_minus vb.pvb_expr ->
                       {
                         env with
                         one_minus = SMap.add txt (idents_of vb.pvb_expr) env.one_minus;
                       }
                     | _ -> env)
                   env vbs
               in
               walk env body
             | Pexp_ifthenelse (cond, then_, else_) ->
               walk env cond;
               let env = add_guards env cond in
               walk env then_;
               Option.iter (walk env) else_
             | Pexp_sequence (a, b) ->
               walk env a;
               (* `if bad then invalid_arg ...; rest` and `assert cond; rest`
                  dominate the remainder of the sequence. *)
               let env =
                 match a.pexp_desc with
                 | Pexp_ifthenelse (cond, _, None) -> add_guards env cond
                 | Pexp_assert cond -> add_guards env cond
                 | _ -> env
               in
               walk env b
             | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
               walk env scrut;
               List.iter (walk_case env) cases
             | Pexp_function cases -> List.iter (walk_case env) cases
             | Pexp_fun (_, default, _, body) ->
               Option.iter (walk env) default;
               walk env body
             | Pexp_apply (f, args) ->
               (match (f.pexp_desc, args) with
               | Pexp_ident { txt = Lident "/."; _ }, [ _; (_, den) ] -> (
                 match denominator_keys env den with
                 | Some keys when SSet.is_empty (SSet.inter keys env.guarded) ->
                   report e.pexp_loc
                 | _ -> ())
               | _ -> ());
               walk env f;
               List.iter (fun (_, a) -> walk env a) args
             | _ ->
               (* Generic recursion into children, same environment. *)
               let it =
                 {
                   Ast_iterator.default_iterator with
                   expr = (fun _ child -> walk env child);
                 }
               in
               Ast_iterator.default_iterator.expr it e
           and walk_case env (c : Parsetree.case) =
             let env =
               match c.pc_guard with
               | Some g ->
                 walk env g;
                 add_guards env g
               | None -> env
             in
             walk env c.pc_rhs
           in
           let expr _sub e = walk empty_env e in
           let it = { Ast_iterator.default_iterator with expr } in
           it.structure it structure;
           !findings))
  in
  Lazy.force rule

(* ------------------------------------------------------------------ *)
(* global-rng                                                          *)
(* ------------------------------------------------------------------ *)

let is_random_path parts =
  match strip_stdlib parts with "Random" :: _ -> true | _ -> false

let global_rng =
  let rec rule =
    lazy
      (Rule.v ~id:"global-rng" ~severity:Finding.Error
         ~hint:
           "thread an explicit Lopc_prng.Rng.t; global Random state breaks deterministic \
            replay of experiments"
         ~check:(fun ~path structure ->
           if Rule.in_prng path then []
           else begin
             let findings = ref [] in
             let report loc what =
               findings :=
                 Rule.finding (Lazy.force rule) ~loc
                   (Format.asprintf "use of %s: global RNG state makes runs irreproducible"
                      what)
                 :: !findings
             in
             let expr sub (e : Parsetree.expression) =
               (match e.pexp_desc with
               | Pexp_ident { txt; loc } when is_random_path (Longident.flatten txt) ->
                 report loc (String.concat "." (Longident.flatten txt))
               | _ -> ());
               Ast_iterator.default_iterator.expr sub e
             in
             let module_expr sub (m : Parsetree.module_expr) =
               (match m.pmod_desc with
               | Pmod_ident { txt; loc } when is_random_path (Longident.flatten txt) ->
                 report loc (String.concat "." (Longident.flatten txt))
               | _ -> ());
               Ast_iterator.default_iterator.module_expr sub m
             in
             let it = { Ast_iterator.default_iterator with expr; module_expr } in
             it.structure it structure;
             !findings
           end))
  in
  Lazy.force rule

(* ------------------------------------------------------------------ *)
(* physical-equality                                                   *)
(* ------------------------------------------------------------------ *)

let is_unit_value (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "()"; _ }, None) -> true
  | _ -> false

let physical_equality =
  let rec rule =
    lazy
      (Rule.v ~id:"physical-equality" ~severity:Finding.Warning
         ~hint:
           "use structural =/<> (or Float.equal / String.equal); physical equality on \
            immutable values is representation-dependent"
         ~check:(fun ~path:_ structure ->
           let findings = ref [] in
           on_every_expr
             (fun e ->
               match e.pexp_desc with
               | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
                 match ident_parts f with
                 | Some [ (("==" | "!=") as op) ]
                   when not (is_unit_value a || is_unit_value b) ->
                   findings :=
                     Rule.finding (Lazy.force rule) ~loc:e.pexp_loc
                       (Format.asprintf
                          "`%s` is physical (pointer) equality, which is fragile on \
                           non-unit values"
                          op)
                     :: !findings
                 | _ -> ())
               | _ -> ())
             structure;
           !findings))
  in
  Lazy.force rule

(* ------------------------------------------------------------------ *)
(* banned-constructs                                                   *)
(* ------------------------------------------------------------------ *)

let banned_constructs =
  let rec rule =
    lazy
      (Rule.v ~id:"banned-constructs" ~severity:Finding.Error
         ~hint:
           "library code must return results or report through Format sinks; only \
            executables own the process and its stdout"
         ~check:(fun ~path structure ->
           let in_lib = Rule.in_library path in
           let findings = ref [] in
           let report loc msg =
             findings := Rule.finding (Lazy.force rule) ~loc msg :: !findings
           in
           on_every_expr
             (fun e ->
               match e.pexp_desc with
               | Pexp_ident { txt; loc } -> (
                 match strip_stdlib (Longident.flatten txt) with
                 | [ "Obj"; "magic" ] -> report loc "Obj.magic defeats the type system"
                 | [ "exit" ] when in_lib ->
                   report loc "exit in library code terminates the caller's process"
                 | [ "Printf"; "printf" ] when in_lib ->
                   report loc
                     "Printf.printf in library code writes to a global sink; return a \
                      result record or take a Format.formatter"
                 | _ -> ())
               | _ -> ())
             structure;
           !findings))
  in
  Lazy.force rule

(* ------------------------------------------------------------------ *)
(* bare-failwith                                                       *)
(* ------------------------------------------------------------------ *)

let bare_failwith =
  let rec rule =
    lazy
      (Rule.v ~id:"bare-failwith" ~severity:Finding.Warning
         ~hint:
           "Failure carries no structure a caller can match on; raise Invalid_argument \
            for precondition violations, declare a dedicated exception, or return a \
            Result"
         ~check:(fun ~path structure ->
           if not (Rule.in_library path) then []
           else begin
             let findings = ref [] in
             let report loc msg =
               findings := Rule.finding (Lazy.force rule) ~loc msg :: !findings
             in
             on_every_expr
               (fun e ->
                 match e.pexp_desc with
                 | Pexp_apply (f, [ (_, arg) ]) -> (
                   match (ident_parts f, arg.pexp_desc) with
                   | ( Some [ ("raise" | "raise_notrace") ],
                       Pexp_construct ({ txt = Lident "Failure"; _ }, Some _) ) ->
                     report e.pexp_loc
                       "raise (Failure _) in library code is an anonymous failure \
                        callers cannot handle precisely"
                   | _ -> ())
                 | Pexp_ident { txt; loc } -> (
                   match strip_stdlib (Longident.flatten txt) with
                   | [ "failwith" ] ->
                     report loc
                       "failwith in library code is an anonymous failure callers \
                        cannot handle precisely"
                   | _ -> ())
                 | _ -> ())
               structure;
             !findings
           end))
  in
  Lazy.force rule

let rules =
  [
    float_equality;
    unguarded_division;
    global_rng;
    physical_equality;
    banned_constructs;
    bare_failwith;
  ]
