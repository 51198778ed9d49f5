(* Data-race rules over the effect summaries ({!Effects}).

   [domain-shared-mutation] — a task handed to Parallel.run/map writes,
   directly or through any chain of calls, a mutable location that is
   visible outside the task: a capture from the enclosing scope, a
   module-level mutable definition, or a captured mutable value passed to
   a function that writes through its parameters. Tasks execute
   concurrently on the pool's domains, so such writes race and the result
   depends on scheduling — exactly what the deterministic-replay contract
   of the replication engine rules out. Atomic.* accesses are the
   sanctioned escape hatch and are not flagged here.

   [atomic-read-modify-write] — an Atomic.get and a plain Atomic.set on
   the same cell in the same definition. The get/set pair is a
   check-then-act: any update landing between the two is lost. Atomic
   cells freshly allocated in the definition are exempt (set-after-make is
   initialisation).

   [mutable-toplevel-escape] — a task reads module-level mutable state
   (directly or transitively). There is one instance of that state per
   program, shared by every task on every domain; even read-only use ties
   the task's result to whatever other code has done to it, which breaks
   --jobs replay. Reported as a warning: hoisting the state into the plan
   is the fix, but a frozen-after-init table can be legitimate (suppress
   with a justification). *)

module SMap = Callgraph.SMap
module SSet = Callgraph.SSet

let shared_id = "domain-shared-mutation"

let rmw_id = "atomic-read-modify-write"

let escape_id = "mutable-toplevel-escape"

let shared_hint =
  "give each task its own slot (a results array indexed by task, filled at \
   plan-build time) or make the shared cell an Atomic; if the sharing is provably \
   benign, suppress with [@lint.allow \"domain-shared-mutation\" \"why\"]"

let rmw_hint =
  "use Atomic.incr/Atomic.fetch_and_add for counters, or a compare_and_set retry \
   loop for general updates; reserve Atomic.set for initialisation before the cell \
   is shared, and suppress with [@lint.allow \"atomic-read-modify-write\" \"why\"] \
   when it provably is"

let escape_hint =
  "allocate the state per task at plan-build time and pass it in as an argument \
   (or through the task array); if the toplevel state is provably frozen before \
   any parallel run, suppress with [@lint.allow \"mutable-toplevel-escape\" \"why\"]"

(* ------------------------------------------------------------------ *)
(* atomic-read-modify-write                                            *)
(* ------------------------------------------------------------------ *)

let check_rmw (t : Effects.t) (d : Callgraph.def) =
  let events = Effects.events t d.key in
  let fresh = Effects.fresh_in t d.key in
  let is_fresh = function
    | Effects.Based (id, _) -> List.exists (Ident.same id) fresh
    | _ -> false
  in
  events
  |> List.filter_map (fun (w : Effects.event) ->
         if
           w.via = Effects.Atomic && w.op = Effects.Write && (not w.rmw_safe)
           && (not (is_fresh w.target))
           && List.exists
                (fun (r : Effects.event) ->
                  r.via = Effects.Atomic && r.op = Effects.Read
                  && Effects.same_target r.target w.target)
                events
         then
           let message =
             Printf.sprintf
               "check-then-act on the atomic cell `%s` in %s: Atomic.get followed \
                by Atomic.set loses any update made between the two"
               (Effects.target_name w.target) d.key
           in
           Some
             (Finding.v ~rule:rmw_id ~severity:Finding.Error ~loc:w.site ~message
                ~hint:rmw_hint)
         else None)

(* ------------------------------------------------------------------ *)
(* Parallel-site analysis                                              *)
(* ------------------------------------------------------------------ *)

(* A witness chain from [key] down to a definition whose *direct* events
   satisfy [direct], descending into callees whose summaries satisfy
   [carries]: when the summary carries the fact, some callee chain
   realises it. Falls back to [key] alone. *)
let witness (t : Effects.t) key ~direct ~carries =
  match
    Callgraph.witness t.graph key
      ~direct:(fun d -> List.find_opt direct (Effects.events t d.key))
      ~carries:(fun r ->
        match Effects.summary t r.target with Some s -> carries s | None -> false)
  with
  | Some (chain, _) -> chain
  | None -> [ key ]

let chain_text chain = String.concat " -> " chain

(* Findings for one seed: a toplevel function referenced from inside a
   task (or passed as the Parallel.map function). Its transitive global
   writes race; its transitive reads of mutable toplevels tie the task to
   shared state. *)
let seed_findings (t : Effects.t) ~runner ~seed_loc seed =
  match Effects.summary t seed with
  | None -> []
  | Some s ->
    let writes =
      SSet.elements s.global_writes
      |> List.filter_map (fun g ->
             match Effects.mutable_global_kind t g with
             | None -> None
             | Some kind ->
               let chain =
                 witness t seed
                   ~direct:(fun (ev : Effects.event) ->
                     ev.op = Effects.Write && ev.via = Effects.Plain
                     && Effects.same_target ev.target (Effects.Global g))
                   ~carries:(fun s -> SSet.mem g s.global_writes)
               in
               let message =
                 Printf.sprintf
                   "task passed to %s calls %s, which writes the module-level %s \
                    `%s`; concurrent tasks race on it"
                   runner (chain_text chain) kind g
               in
               Some
                 (Finding.v ~rule:shared_id ~severity:Finding.Error ~loc:seed_loc
                    ~message ~hint:shared_hint))
    in
    let reads =
      SSet.elements s.global_reads
      |> List.filter_map (fun g ->
             match Effects.mutable_global_kind t g with
             | None -> None
             | Some kind ->
               let chain =
                 witness t seed
                   ~direct:(fun (ev : Effects.event) ->
                     ev.op = Effects.Read
                     && Effects.same_target ev.target (Effects.Global g))
                   ~carries:(fun s -> SSet.mem g s.global_reads)
               in
               let message =
                 Printf.sprintf
                   "task passed to %s reaches the module-level %s `%s` through %s; \
                    one shared instance feeds every task on every domain"
                   runner kind g (chain_text chain)
               in
               Some
                 (Finding.v ~rule:escape_id ~severity:Finding.Warning ~loc:seed_loc
                    ~message ~hint:escape_hint))
    in
    writes @ reads

(* Analysis of one argument of a Parallel.run/map application. Inside any
   lambda of the argument:
   - a plain write to a capture or a module-level mutable is a race;
   - a plain read of a module-level mutable is an escape;
   - a captured mutable value handed to a function with foreign writes is
     a race (the callee writes storage the task does not own);
   - a reference to a toplevel function seeds the transitive analysis. *)
let check_arg (t : Effects.t) ~runner (arg : Typedtree.expression) =
  let graph = t.Effects.graph in
  let bound = Par_rules.bound_idents arg in
  let is_bound id = List.exists (Ident.same id) bound in
  let findings = ref [] in
  let seeds = ref [] in
  let add_seed key loc =
    if
      SMap.mem key graph.Callgraph.by_key
      && (not (SMap.mem key t.Effects.mutable_globals))
      && (not (SSet.mem key t.Effects.atomic_cells))
      && not (List.mem_assoc key !seeds)
    then seeds := (key, loc) :: !seeds
  in
  let emit f = findings := f :: !findings in
  let direct_event (ev : Effects.event) =
    match (ev.target, ev.op, ev.via) with
    | Effects.Based (id, name), Effects.Write, Effects.Plain when not (is_bound id)
      ->
      let message =
        Printf.sprintf
          "task passed to %s captures and writes `%s`; concurrent tasks race on \
           it and the outcome depends on worker scheduling"
          runner name
      in
      emit
        (Finding.v ~rule:shared_id ~severity:Finding.Error ~loc:ev.site ~message
           ~hint:shared_hint)
    | Effects.Global g, Effects.Write, Effects.Plain -> (
      match Effects.mutable_global_kind t g with
      | Some kind ->
        let message =
          Printf.sprintf
            "task passed to %s writes the module-level %s `%s` shared by every \
             task; concurrent tasks race on it"
            runner kind g
        in
        emit
          (Finding.v ~rule:shared_id ~severity:Finding.Error ~loc:ev.site ~message
             ~hint:shared_hint)
      | None -> ())
    | Effects.Global g, Effects.Read, Effects.Plain -> (
      match Effects.mutable_global_kind t g with
      | Some kind ->
        let message =
          Printf.sprintf
            "task passed to %s reads the module-level %s `%s`; one shared \
             instance feeds every task on every domain"
            runner kind g
        in
        emit
          (Finding.v ~rule:escape_id ~severity:Finding.Warning ~loc:ev.site
             ~message ~hint:escape_hint)
      | None -> ())
    | _ -> ()
  in
  (* A captured mutable argument at a call whose callee has foreign
     writes. *)
  let check_call (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let callee = Effects.path_key graph p in
      match Effects.summary t callee with
      | Some s when s.foreign_writes ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some ({ Typedtree.exp_desc = Texp_ident (ap, lid, _); _ } as ae) -> (
              let described name =
                match Type_safety.mutability graph ~owner:"" ae.exp_type with
                | Type_safety.Shared kind ->
                  let message =
                    Printf.sprintf
                      "task passed to %s hands the captured %s `%s` to %s, which \
                       writes through its parameters; concurrent tasks race on it"
                      runner kind name callee
                  in
                  emit
                    (Finding.v ~rule:shared_id ~severity:Finding.Error
                       ~loc:lid.loc ~message ~hint:shared_hint)
                | _ -> ()
              in
              match ap with
              | Path.Pident id when not (is_bound id) -> (
                match Callgraph.resolve_ident graph id with
                | Some g when SMap.mem g t.Effects.mutable_globals ->
                  described g
                | Some _ -> ()
                | None -> described (Ident.name id))
              | Path.Pident _ -> ()
              | _ ->
                let g = Callgraph.normalize_path graph ap in
                if SMap.mem g t.Effects.mutable_globals then described g)
            | _ -> ())
          args
      | _ -> ())
    | _ -> ()
  in
  let rec walk ~in_closure (e : Typedtree.expression) =
    if in_closure then begin
      List.iter direct_event (Effects.node_events graph e);
      check_call e;
      match e.exp_desc with
      | Texp_ident (path, lid, _) -> add_seed (Effects.path_key graph path) lid.loc
      | _ -> ()
    end;
    let in_closure =
      in_closure || match e.exp_desc with Texp_function _ -> true | _ -> false
    in
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _sub child -> walk ~in_closure child);
      }
    in
    Tast_iterator.default_iterator.expr it e
  in
  walk ~in_closure:false arg;
  (* The function handed to Parallel.map is itself a task body even when
     it is a bare toplevel reference (no lambda to descend into). *)
  (match arg.exp_desc with
  | Texp_ident (path, lid, _) -> add_seed (Effects.path_key graph path) lid.loc
  | _ -> ());
  List.iter
    (fun (seed, loc) ->
      List.iter emit (seed_findings t ~runner ~seed_loc:loc seed))
    (List.rev !seeds);
  List.rev !findings

let check_parallel_sites (t : Effects.t) (d : Callgraph.def) =
  match d.Callgraph.body with
  | None -> []
  | Some body ->
    let graph = t.Effects.graph in
    let findings = ref [] in
    let rec walk (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) ->
        let callee = Effects.path_key graph path in
        if Par_rules.is_parallel_runner callee then
          List.iter
            (fun (_, arg) ->
              match arg with
              | None -> ()
              | Some arg ->
                findings := List.rev_append (check_arg t ~runner:callee arg) !findings)
            args
      | _ -> ());
      let it =
        { Tast_iterator.default_iterator with expr = (fun _sub c -> walk c) }
      in
      Tast_iterator.default_iterator.expr it e
    in
    walk body;
    List.rev !findings

let check (t : Effects.t) =
  List.concat_map
    (fun (d : Callgraph.def) -> check_rmw t d @ check_parallel_sites t d)
    t.Effects.graph.Callgraph.defs
