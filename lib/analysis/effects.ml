(* Per-function effect summaries over mutable locations.

   For every definition in the call graph this module computes (1) the
   *direct* mutable-location events of its body — each read or write of a
   ref cell, mutable record field, array, bytes, Hashtbl, Buffer, Queue,
   Stack or Atomic cell, with the operation, whether it went through
   Atomic, and the resolved base of the location — and (2) a *transitive
   summary*, the least fixpoint of

     summary(d) = direct(d)  ∪  ⋃ { summary(c) | c referenced by d }

   over the finite powerset of toplevel keys (plus two booleans), so the
   fixpoint terminates: the domain is finite and every step is a monotone
   union.

   Location bases are classified three ways. [Global key] is a toplevel
   definition (resolved through the same ident/path normalisation as the
   call graph) — the only locations whose identity survives
   interprocedural propagation. [Based (id, name)] is rooted at a local
   ident: a parameter, a capture, or a let-binding. [Opaque] is anything
   whose base the resolver cannot name (a computed expression). Writes to
   [Based] locations that were *freshly allocated* in the same definition
   (let-bound to [ref]/[Array.make]/[Hashtbl.create]/a record or array
   literal/...) are private and excluded from the summary; writes to any
   other [Based] or [Opaque] base surface as [foreign_writes] — the
   definition mutates storage owned by someone else, but which storage
   depends on its arguments. The race rules ({!Race_rules}) combine the
   two: global footprints propagate through any call depth, foreign
   writes matter when a captured mutable value flows in at a
   [Parallel.run] site. *)

module SMap = Callgraph.SMap
module SSet = Callgraph.SSet

type target =
  | Global of string  (* toplevel definition, by call-graph key *)
  | Based of Ident.t * string  (* rooted at a local ident; name for messages *)
  | Opaque  (* computed base: (find_bucket t k) := v *)

type op = Read | Write

type via = Plain | Atomic

type event = {
  target : target;
  op : op;
  via : via;
  rmw_safe : bool;  (* an atomic read-modify-write primitive, not a plain set *)
  site : Location.t;
}

type summary = {
  global_reads : SSet.t;
  global_writes : SSet.t;  (* plain (non-Atomic) writes *)
  atomic_globals : SSet.t;  (* globals accessed through Atomic.* *)
  foreign_writes : bool;  (* plain write through a parameter/capture/opaque base *)
  foreign_reads : bool;
}

let empty_summary =
  {
    global_reads = SSet.empty;
    global_writes = SSet.empty;
    atomic_globals = SSet.empty;
    foreign_writes = false;
    foreign_reads = false;
  }

type t = {
  graph : Callgraph.t;
  events : event list SMap.t;  (* direct events per def key, source order *)
  summaries : summary SMap.t;  (* transitive fixpoint *)
  locals : Ident.t list SMap.t;  (* freshly-allocated let-bound idents per def *)
  mutable_globals : string SMap.t;  (* key -> kind, plain-mutable toplevels *)
  atomic_cells : SSet.t;  (* toplevel Atomic.t cells *)
}

(* ------------------------------------------------------------------ *)
(* The operation table                                                 *)
(* ------------------------------------------------------------------ *)

(* Known stdlib mutators/readers, by normalised callee key: which argument
   is the mutable location, what the operation does to it, and — for
   Atomic — whether the primitive is itself a safe read-modify-write. *)
let op_table : (string * (int * op * via * bool) list) list =
  [
    (":=", [ (0, Write, Plain, false) ]);
    ("incr", [ (0, Write, Plain, false) ]);
    ("decr", [ (0, Write, Plain, false) ]);
    ("!", [ (0, Read, Plain, false) ]);
    ("Array.set", [ (0, Write, Plain, false) ]);
    ("Array.unsafe_set", [ (0, Write, Plain, false) ]);
    ("Array.fill", [ (0, Write, Plain, false) ]);
    ("Array.blit", [ (0, Read, Plain, false); (2, Write, Plain, false) ]);
    ("Array.sort", [ (1, Write, Plain, false) ]);
    ("Array.get", [ (0, Read, Plain, false) ]);
    ("Array.unsafe_get", [ (0, Read, Plain, false) ]);
    ("Bytes.set", [ (0, Write, Plain, false) ]);
    ("Bytes.unsafe_set", [ (0, Write, Plain, false) ]);
    ("Bytes.fill", [ (0, Write, Plain, false) ]);
    ("Bytes.blit", [ (0, Read, Plain, false); (2, Write, Plain, false) ]);
    ("Bytes.get", [ (0, Read, Plain, false) ]);
    ("Hashtbl.add", [ (0, Write, Plain, false) ]);
    ("Hashtbl.replace", [ (0, Write, Plain, false) ]);
    ("Hashtbl.remove", [ (0, Write, Plain, false) ]);
    ("Hashtbl.reset", [ (0, Write, Plain, false) ]);
    ("Hashtbl.clear", [ (0, Write, Plain, false) ]);
    ("Hashtbl.filter_map_inplace", [ (1, Write, Plain, false) ]);
    ("Hashtbl.find", [ (0, Read, Plain, false) ]);
    ("Hashtbl.find_opt", [ (0, Read, Plain, false) ]);
    ("Hashtbl.find_all", [ (0, Read, Plain, false) ]);
    ("Hashtbl.mem", [ (0, Read, Plain, false) ]);
    ("Hashtbl.length", [ (0, Read, Plain, false) ]);
    ("Hashtbl.iter", [ (1, Read, Plain, false) ]);
    ("Hashtbl.fold", [ (1, Read, Plain, false) ]);
    ("Buffer.add_char", [ (0, Write, Plain, false) ]);
    ("Buffer.add_string", [ (0, Write, Plain, false) ]);
    ("Buffer.add_bytes", [ (0, Write, Plain, false) ]);
    ("Buffer.add_substring", [ (0, Write, Plain, false) ]);
    ("Buffer.add_buffer", [ (0, Write, Plain, false); (1, Read, Plain, false) ]);
    ("Buffer.clear", [ (0, Write, Plain, false) ]);
    ("Buffer.reset", [ (0, Write, Plain, false) ]);
    ("Buffer.truncate", [ (0, Write, Plain, false) ]);
    ("Buffer.contents", [ (0, Read, Plain, false) ]);
    ("Buffer.length", [ (0, Read, Plain, false) ]);
    ("Queue.push", [ (1, Write, Plain, false) ]);
    ("Queue.add", [ (1, Write, Plain, false) ]);
    ("Queue.pop", [ (0, Write, Plain, false) ]);
    ("Queue.take", [ (0, Write, Plain, false) ]);
    ("Queue.clear", [ (0, Write, Plain, false) ]);
    ("Queue.transfer", [ (0, Write, Plain, false); (1, Write, Plain, false) ]);
    ("Queue.peek", [ (0, Read, Plain, false) ]);
    ("Queue.top", [ (0, Read, Plain, false) ]);
    ("Queue.length", [ (0, Read, Plain, false) ]);
    ("Queue.is_empty", [ (0, Read, Plain, false) ]);
    ("Stack.push", [ (1, Write, Plain, false) ]);
    ("Stack.pop", [ (0, Write, Plain, false) ]);
    ("Stack.clear", [ (0, Write, Plain, false) ]);
    ("Stack.top", [ (0, Read, Plain, false) ]);
    ("Atomic.get", [ (0, Read, Atomic, true) ]);
    ("Atomic.set", [ (0, Write, Atomic, false) ]);
    ("Atomic.exchange", [ (0, Write, Atomic, true) ]);
    ("Atomic.compare_and_set", [ (0, Write, Atomic, true) ]);
    ("Atomic.fetch_and_add", [ (0, Write, Atomic, true) ]);
    ("Atomic.incr", [ (0, Write, Atomic, true) ]);
    ("Atomic.decr", [ (0, Write, Atomic, true) ]);
  ]

(* Projections the base resolver looks through: [a.(i) <- v] writes [a],
   [!r.field] reads [r]. *)
let projections = [ "!"; "Array.get"; "Array.unsafe_get"; "Bytes.get"; "Atomic.get" ]

(* Allocators whose let-bound result is storage private to the enclosing
   definition (until it escapes through a closure — which the race rules
   check at the capture site, not here). *)
let allocators =
  [
    "ref"; "Array.make"; "Array.init"; "Array.create_float"; "Array.copy";
    "Array.of_list"; "Array.append"; "Array.sub"; "Array.map"; "Array.mapi";
    "Array.make_matrix"; "Bytes.create"; "Bytes.make"; "Bytes.copy";
    "Bytes.of_string"; "Hashtbl.create"; "Hashtbl.copy"; "Buffer.create";
    "Queue.create"; "Stack.create"; "Atomic.make";
  ]

(* ------------------------------------------------------------------ *)
(* Per-definition event collection                                     *)
(* ------------------------------------------------------------------ *)

(* Normalised key of a callee/base path, resolving same-unit [Pident]
   references through the graph's ident table first. *)
let path_key graph path =
  match path with
  | Path.Pident id -> (
    match Callgraph.resolve_ident graph id with
    | Some key -> key
    | None -> Callgraph.normalize_path graph path)
  | _ -> Callgraph.normalize_path graph path

let nth_arg args idx =
  match List.nth_opt args idx with Some (_, arg) -> arg | None -> None

(* The base of a location expression. *)
let rec resolve_base graph (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
    match Callgraph.resolve_ident graph id with
    | Some key -> Global key
    | None -> Based (id, Ident.name id))
  | Texp_ident (path, _, _) ->
    let key = Callgraph.normalize_path graph path in
    if SMap.mem key graph.Callgraph.by_key then Global key else Opaque
  | Texp_field (obj, _, _) -> resolve_base graph obj
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when List.mem (path_key graph p) projections -> (
    match nth_arg args 0 with Some a -> resolve_base graph a | None -> Opaque)
  | _ -> Opaque

(* Idents let-bound to a fresh allocation inside [body]. Scoping is not
   tracked — idents are stamped, so a flat set is exact. *)
let fresh_locals graph (body : Typedtree.expression) =
  let acc = ref [] in
  let rec is_alloc (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_array _ | Texp_record _ -> true
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      List.mem (path_key graph p) allocators
    | Texp_let (_, _, e) | Texp_sequence (_, e) -> is_alloc e
    | _ -> false
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    (match (vb.vb_pat.pat_desc, is_alloc vb.vb_expr) with
    | Tpat_var (id, _), true -> acc := id :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with value_binding } in
  it.expr it body;
  !acc

(* Direct events of one expression node (the walk recurses separately). *)
let node_events graph (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_setfield (obj, _, _, _) ->
    [ { target = resolve_base graph obj; op = Write; via = Plain; rmw_safe = false;
        site = e.exp_loc } ]
  | Texp_field (obj, _, label) when label.lbl_mut = Asttypes.Mutable ->
    [ { target = resolve_base graph obj; op = Read; via = Plain; rmw_safe = false;
        site = e.exp_loc } ]
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    match List.assoc_opt (path_key graph p) op_table with
    | None -> []
    | Some specs ->
      List.filter_map
        (fun (idx, op, via, rmw_safe) ->
          match nth_arg args idx with
          | None -> None
          | Some a ->
            Some
              { target = resolve_base graph a; op; via; rmw_safe; site = a.exp_loc })
        specs)
  | _ -> []

let events_of_body graph (body : Typedtree.expression) =
  let acc = ref [] in
  let rec walk (e : Typedtree.expression) =
    acc := List.rev_append (node_events graph e) !acc;
    let it =
      { Tast_iterator.default_iterator with expr = (fun _sub child -> walk child) }
    in
    Tast_iterator.default_iterator.expr it e
  in
  walk body;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

let direct_summary ~fresh events =
  let is_fresh id = List.exists (Ident.same id) fresh in
  List.fold_left
    (fun s ev ->
      match (ev.target, ev.op, ev.via) with
      | Global g, Read, Plain -> { s with global_reads = SSet.add g s.global_reads }
      | Global g, Write, Plain -> { s with global_writes = SSet.add g s.global_writes }
      | Global g, _, Atomic -> { s with atomic_globals = SSet.add g s.atomic_globals }
      | Based (id, _), Write, Plain when not (is_fresh id) ->
        { s with foreign_writes = true }
      | Based (id, _), Read, Plain when not (is_fresh id) ->
        { s with foreign_reads = true }
      | Opaque, Write, Plain -> { s with foreign_writes = true }
      | Opaque, Read, Plain -> { s with foreign_reads = true }
      | _ -> s)
    empty_summary events

let merge a b =
  {
    global_reads = SSet.union a.global_reads b.global_reads;
    global_writes = SSet.union a.global_writes b.global_writes;
    atomic_globals = SSet.union a.atomic_globals b.atomic_globals;
    foreign_writes = a.foreign_writes || b.foreign_writes;
    foreign_reads = a.foreign_reads || b.foreign_reads;
  }

let summary_equal a b =
  SSet.equal a.global_reads b.global_reads
  && SSet.equal a.global_writes b.global_writes
  && SSet.equal a.atomic_globals b.atomic_globals
  && a.foreign_writes = b.foreign_writes
  && a.foreign_reads = b.foreign_reads

(* Least fixpoint by chaotic iteration: the domain (powerset of toplevel
   keys, twice, plus two booleans) is finite and [merge] is monotone, so
   the iteration terminates. *)
let fixpoint (graph : Callgraph.t) direct =
  let get sets key = Option.value (SMap.find_opt key sets) ~default:empty_summary in
  Callgraph.fixpoint graph ~init:direct ~bot:empty_summary ~equal:summary_equal
    ~step:(fun sets d current ->
      Some
        (List.fold_left
           (fun acc (r : Callgraph.ref_site) ->
             if SMap.mem r.target graph.Callgraph.by_key then merge acc (get sets r.target)
             else acc)
           current d.refs))

(* ------------------------------------------------------------------ *)
(* Mutable toplevels                                                   *)
(* ------------------------------------------------------------------ *)

let owner_of_key key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

let classify_toplevels (graph : Callgraph.t) =
  List.fold_left
    (fun (mutables, atomics) (d : Callgraph.def) ->
      match d.body with
      | None -> (mutables, atomics)
      | Some body -> (
        match
          Type_safety.mutability graph ~owner:(owner_of_key d.key) body.exp_type
        with
        | Type_safety.Shared kind ->
          ((if SMap.mem d.key mutables then mutables else SMap.add d.key kind mutables),
           atomics)
        | Type_safety.Atomic_cell -> (mutables, SSet.add d.key atomics)
        | Type_safety.Frozen -> (mutables, atomics)))
    (SMap.empty, SSet.empty) graph.defs

(* ------------------------------------------------------------------ *)
(* Assembly and queries                                                *)
(* ------------------------------------------------------------------ *)

let analyze (graph : Callgraph.t) =
  (* Direct facts come from the first binding of each key. *)
  let bodies = SMap.filter_map (fun _ (d : Callgraph.def) -> d.body) graph.by_key in
  let events = SMap.map (events_of_body graph) bodies in
  let locals = SMap.map (fresh_locals graph) bodies in
  let direct =
    SMap.mapi (fun key evs -> direct_summary ~fresh:(SMap.find key locals) evs) events
  in
  let summaries = fixpoint graph direct in
  let mutable_globals, atomic_cells = classify_toplevels graph in
  { graph; events; summaries; locals; mutable_globals; atomic_cells }

let events t key = Option.value (SMap.find_opt key t.events) ~default:[]

let fresh_in t key = Option.value (SMap.find_opt key t.locals) ~default:[]

let summary t key = SMap.find_opt key t.summaries

let mutable_global_kind t key = SMap.find_opt key t.mutable_globals

let is_atomic_cell t key = SSet.mem key t.atomic_cells

let target_name = function
  | Global key -> key
  | Based (_, name) -> name
  | Opaque -> "<expr>"

let same_target a b =
  match (a, b) with
  | Global a, Global b -> String.equal a b
  | Based (a, _), Based (b, _) -> Ident.same a b
  | _ -> false

(* The stable, human- and test-facing footprint dump behind
   [lopc_lint --effects KEY]. *)
let print_footprint ppf t key =
  match summary t key with
  | None -> false
  | Some s ->
    let pp_set label set =
      Format.fprintf ppf "  %-15s %s@." label
        (if SSet.is_empty set then "(none)"
         else String.concat " " (SSet.elements set))
    in
    let pp_flag label flag =
      Format.fprintf ppf "  %-15s %s@." label (if flag then "yes" else "no")
    in
    Format.fprintf ppf "effect footprint of %s@." key;
    pp_set "global writes:" s.global_writes;
    pp_set "global reads:" s.global_reads;
    pp_set "atomic cells:" s.atomic_globals;
    pp_flag "foreign writes:" s.foreign_writes;
    pp_flag "foreign reads:" s.foreign_reads;
    true
