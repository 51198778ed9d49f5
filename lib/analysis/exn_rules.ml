(* Exception escape: every solve_status function, and everything it calls
   transitively, must be raise-free apart from Invalid_argument (the
   documented precondition contract) and exceptions that are raised and
   caught before they can escape. "Non-raising" is a headline guarantee of
   the solver API — callers branch on the returned status instead of
   wrapping calls in try — so it is checked here rather than promised in
   prose.

   The analysis computes, per definition, the set of exception constructor
   names that can escape it: its own uncaught raise sites, known raising
   stdlib helpers (failwith, Hashtbl.find, ...), and the escape sets of its
   project callees minus whatever the enclosing handlers at each call site
   catch. "*" stands for a computed exception (re-raise of a bound value),
   which only a wildcard handler removes. Stdlib functions outside the known
   list are assumed non-raising, and implicit bounds/assert failures are out
   of scope: both are documented approximations. *)

module SMap = Callgraph.SMap
module SSet = Callgraph.SSet

let rule_id = "exn-escape"

let severity = Finding.Error

let summary = "an exception can escape a solve_status (non-raising) entry point"

let hint =
  "catch the exception and map it onto the status result (Converged/Saturated/\
   Diverged), validate earlier with invalid_arg, or — if the raise is provably \
   unreachable — suppress with [@lint.allow \"exn-escape\" \"why\"]"

(* The definitions held to the non-raising contract, and the exceptions the
   contract permits. *)
let entry_name = "solve_status"

let allowed = [ "Invalid_argument" ]

(* Stdlib helpers that raise, by normalised key. *)
let external_raisers =
  [
    ("invalid_arg", "Invalid_argument");
    ("failwith", "Failure");
    ("Hashtbl.find", "Not_found");
    ("List.find", "Not_found");
    ("List.assoc", "Not_found");
    ("List.hd", "Failure");
    ("List.tl", "Failure");
    ("Option.get", "Invalid_argument");
    ("Queue.pop", "Empty");
    ("Queue.take", "Empty");
    ("Queue.peek", "Empty");
    ("Stack.pop", "Empty");
    ("Stack.top", "Empty");
    ("int_of_string", "Failure");
    ("float_of_string", "Failure");
  ]

let catches caught exn = List.mem "*" caught || List.mem exn caught

(* Exceptions a definition introduces by itself (before callee propagation). *)
let direct_escapes (d : Callgraph.def) =
  let from_raises =
    List.filter_map
      (fun (r : Callgraph.raise_site) ->
        if catches r.raise_caught r.exn then None else Some r.exn)
      d.raises
  in
  let from_externals =
    List.filter_map
      (fun (r : Callgraph.ref_site) ->
        match List.assoc_opt r.target external_raisers with
        | Some exn when not (catches r.caught exn) -> Some exn
        | _ -> None)
      d.refs
  in
  SSet.of_list (from_raises @ from_externals)

let escape sets key = Option.value (SMap.find_opt key sets) ~default:SSet.empty

(* Fixpoint of escape(d) = direct(d) ∪ ⋃ (escape(callee) \ caught-at-site),
   with direct(d) taken from the first binding of each key. *)
let escape_sets (graph : Callgraph.t) =
  Callgraph.fixpoint graph
    ~init:(SMap.map direct_escapes graph.by_key)
    ~bot:SSet.empty ~equal:SSet.equal
    ~step:(fun sets d current ->
      Some
        (List.fold_left
           (fun acc (r : Callgraph.ref_site) ->
             if not (SMap.mem r.target graph.by_key) then acc
             else
               SSet.fold
                 (fun exn acc -> if catches r.caught exn then acc else SSet.add exn acc)
                 (escape sets r.target) acc)
           current d.refs))

(* A witness chain from [key] to a site that lets [exn] out: a direct raise
   or known-raising stdlib call, reached through callees whose escape sets
   still carry [exn] past the handlers at the call site. *)
let witness graph sets key exn =
  let direct (d : Callgraph.def) =
    match
      List.find_opt
        (fun (r : Callgraph.raise_site) ->
          r.exn = exn && not (catches r.raise_caught exn))
        d.raises
    with
    | Some r -> Some (Printf.sprintf "raise %s" r.written, r.raise_loc)
    | None ->
      List.find_map
        (fun (r : Callgraph.ref_site) ->
          match List.assoc_opt r.target external_raisers with
          | Some e when e = exn && not (catches r.caught exn) ->
            Some (r.target, r.ref_loc)
          | _ -> None)
        d.refs
  in
  let carries (r : Callgraph.ref_site) =
    SSet.mem exn (escape sets r.target) && not (catches r.caught exn)
  in
  Callgraph.witness graph key ~direct ~carries

let check (graph : Callgraph.t) =
  let sets = escape_sets graph in
  graph.defs
  |> List.filter (fun (d : Callgraph.def) -> d.def_name = entry_name)
  |> List.concat_map (fun (d : Callgraph.def) ->
         let escaping =
           SSet.elements (escape sets d.key)
           |> List.filter (fun exn -> not (List.mem exn allowed))
         in
         List.filter_map
           (fun exn ->
             match witness graph sets d.key exn with
             | None -> None
             | Some (chain, (site, loc)) ->
               let what =
                 if exn = "*" then "a computed (re-raised) exception"
                 else Printf.sprintf "`%s`" exn
               in
               let message =
                 Printf.sprintf
                   "%s can escape the non-raising entry point %s: %s at %s" what
                   d.key
                   (String.concat " -> " chain)
                   site
               in
               Some (Finding.v ~rule:rule_id ~severity ~loc ~message ~hint))
           escaping)
