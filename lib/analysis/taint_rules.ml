(* Determinism taint: no function reachable from the simulator (anything
   under an entry directory) or from a solver entry point (any function
   named solve/solve_status, plus explicit --entry keys) may reach a
   nondeterminism source. Sources are wall clocks, the global Stdlib.Random
   stream, Hashtbl iteration (unspecified hash order), and polymorphic
   compare/equality/hash instantiated at a float-bearing, abstract or
   polymorphic type. Each finding carries the reachability chain from the
   entry that first discovered the tainted definition. *)

let rule_id = "determinism-taint"

let severity = Finding.Error

let hint =
  "thread an explicit Lopc_prng.Rng.t, iterate in a deterministic order, or compare \
   with a monomorphic comparator (Float.compare, Int.equal, a hand-written total \
   order); if the site is provably harmless, suppress with [@lint.allow \
   \"determinism-taint\" \"why\"]"

let entry_dirs = [ "lib/activemsg"; "lib/eventsim" ]

let entry_names = [ "solve"; "solve_status" ]

let is_entry ~entries (d : Callgraph.def) =
  List.exists (fun dir -> Callgraph.dir_prefix dir d.source) entry_dirs
  || List.mem d.def_name entry_names
  || List.exists
       (fun e -> d.key = e || String.starts_with ~prefix:(e ^ ".") d.key)
       entries

let wall_clocks = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let hash_iterators = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let poly_comparators = [ "compare"; "="; "<>"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

(* Is this reference itself a nondeterminism source? *)
let source_of graph (d : Callgraph.def) (r : Callgraph.ref_site) =
  if Callgraph.path_head r.target = "Random" then
    Some (Printf.sprintf "the global RNG %s (replay cannot reseed it)" r.target)
  else if List.mem r.target wall_clocks then
    Some (Printf.sprintf "the wall clock %s" r.target)
  else if List.mem r.target hash_iterators then
    Some (Printf.sprintf "%s (iteration order follows the hash, not the program)" r.target)
  else if List.mem r.target poly_comparators then
    match Type_safety.comparison_domain r.typ with
    | None -> None
    | Some domain -> (
      match Type_safety.unsafe_reason graph ~owner:d.unit_base domain with
      | Some reason ->
        Some (Printf.sprintf "polymorphic %s applied at %s" r.target reason)
      | None -> None)
  else None

let check ?(entries = []) (graph : Callgraph.t) =
  Callgraph.reach graph ~entry:(is_entry ~entries) (fun d chain ->
      List.filter_map
        (fun (r : Callgraph.ref_site) ->
          match source_of graph d r with
          | Some desc ->
            let message =
              Printf.sprintf "%s; reachable as %s" desc (String.concat " -> " chain)
            in
            Some (Finding.v ~rule:rule_id ~severity ~loc:r.ref_loc ~message ~hint)
          | None -> None)
        d.refs)
