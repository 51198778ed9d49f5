(* Unbounded-retry detection: any [while] loop in a definition reachable
   from a solver, simulator or lib/obs entry point must be budget-aware. A retry or
   polling loop with no fuel, cancellation token, or explicit iteration
   bound in sight is exactly the loop that wedges a run when the model
   leaves its convergent regime — the supervised-runtime contract says
   every such loop polls a budget once per iteration so its caller can
   stop it. [for] loops are inherently bounded and exempt.

   A loop passes if its enclosing definition mentions a budget-ish
   identifier — anything containing [fuel], [budget], [cancel], [max_],
   [deadline] or [remaining], which covers direct [Budget.check] calls,
   local helpers like [check_budget], and loops guarded by a stepper that
   received the budget — or references [Budget.*] / [Cancel.*] directly.
   The granularity is the definition, not the loop: a definition that
   threads a budget anywhere is assumed to have wired it into its loops
   (the robust suite's budget tests check the wiring dynamically). Findings carry the call
   chain from the entry that reached the loop. *)

let rule_id = "unbounded-retry"

let severity = Finding.Error

let hint =
  "poll a Lopc_robust.Budget.t (or Cancel.t) once per iteration, or bound the \
   loop with an explicit max_*/fuel counter; if the loop is provably bounded by \
   its data, suppress with [@lint.allow \"unbounded-retry\" \"why\"]"

let bound_substrings = [ "fuel"; "budget"; "cancel"; "max_"; "deadline"; "remaining" ]

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n > 0 && at 0

let budget_ish name =
  let name = String.lowercase_ascii name in
  List.exists (contains name) bound_substrings

(* Does any identifier in the subtree look like a bound or budget? Local
   idents count ([check_budget], [max_iter]) as well as globals. *)
let mentions_bound expr =
  let found = ref false in
  let expr_it sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (path, _, _) -> (
      match List.rev (Callgraph.flatten_path path) with
      | last :: _ -> if budget_ish last then found := true
      | [] -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_it } in
  it.expr it expr;
  !found

(* Locations of every while loop in [body]. *)
let while_locs body =
  let acc = ref [] in
  let expr_it sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_while (_, _) -> acc := e.Typedtree.exp_loc :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_it } in
  it.expr it body;
  List.rev !acc

let def_budget_aware (d : Callgraph.def) =
  List.exists
    (fun (r : Callgraph.ref_site) ->
      let head = Callgraph.path_head r.target in
      head = "Budget" || head = "Cancel")
    d.Callgraph.refs

let check (graph : Callgraph.t) =
  Callgraph.reach graph ~entry:Taint_rules.is_entry (fun d chain ->
      match d.body with
      | Some body when not (def_budget_aware d || mentions_bound body) ->
        List.map
          (fun loc ->
            let message =
              Printf.sprintf
                "a while loop with no budget, cancellation, or bound in sight; \
                 reachable as %s"
                (String.concat " -> " chain)
            in
            Finding.v ~rule:rule_id ~severity ~loc ~message ~hint)
          (while_locs body)
      | Some _ | None -> [])
