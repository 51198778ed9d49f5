(* Parallel task RNG capture: closures handed to Parallel.run/Parallel.map
   execute on whichever domain steals them, in whatever order the workers
   reach them. A task that draws from — or splits — a generator captured
   from the enclosing scope therefore produces values that depend on
   scheduling, even though every individual stream operation is
   deterministic: the shared generator's state advances in completion
   order. The discipline that makes Parallel.run order-insensitive is to
   derive one child stream per task *serially* (Rng.split_n at plan-build
   time) and have task [i] own element [i]; then every draw is a pure
   function of (seed, task index). The rule enforces the discipline
   intraprocedurally: inside any argument of a Parallel.run/map
   application, a use of a raw [Rng.t] under a lambda whose binder is
   outside that argument is a finding. Arrays of streams ([Rng.t array])
   are the sanctioned carrier and are not flagged. *)

let rule_id = "parallel-rng-capture"

let severity = Finding.Error

let hint =
  "derive per-task streams serially before building the task array (let streams = \
   Rng.split_n master n) and let task i own streams.(i); drawing from or splitting a \
   shared generator inside a task makes its values depend on worker scheduling. If the \
   capture is provably benign, suppress with [@lint.allow \"parallel-rng-capture\" \
   \"why\"]"

let has_suffix ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* Both the real [Lopc_repro.Parallel] and a fixture's local [Parallel]
   module qualify, as elsewhere in the typed rules. *)
let is_parallel_runner key =
  List.exists
    (fun fn -> key = "Parallel." ^ fn || has_suffix ~suffix:(".Parallel." ^ fn) key)
    [ "run"; "map" ]

let is_rng_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) ->
    let name = Path.name path in
    name = "Rng.t" || has_suffix ~suffix:".Rng.t" name
  | _ -> false

(* Every ident bound by any pattern inside [e] — lambda parameters and
   let-bindings within the task array all count as task-internal. *)
let bound_idents (e : Typedtree.expression) =
  let acc = ref [] in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    acc := Typedtree.pat_bound_idents p @ !acc;
    Tast_iterator.default_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.expr it e;
  !acc

(* First use site, per captured ident, of a raw Rng.t under a lambda in
   [arg]: uses outside any lambda happen at array-construction time on the
   submitting domain, in program order, and are fine. *)
let captured_streams (arg : Typedtree.expression) =
  let bound = bound_idents arg in
  let seen = Hashtbl.create 4 in
  let hits = ref [] in
  let rec walk ~in_closure (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Pident id, lid, _)
      when in_closure && is_rng_type e.exp_type
           && (not (List.exists (Ident.same id) bound))
           && not (Hashtbl.mem seen (Ident.name id)) ->
      Hashtbl.add seen (Ident.name id) ();
      hits := (Ident.name id, lid.loc) :: !hits
    | _ -> ());
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
  List.rev !hits

let check_def ~normalize_key (d : Callgraph.def) =
  match d.Callgraph.body with
  | None -> []
  | Some body ->
    let findings = ref [] in
    let rec walk (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) ->
        let callee = normalize_key path in
        if is_parallel_runner callee then
          List.iter
            (fun (_, arg) ->
              match arg with
              | None -> ()
              | Some (arg : Typedtree.expression) ->
                List.iter
                  (fun (name, loc) ->
                    let message =
                      Printf.sprintf
                        "task passed to %s captures the outer stream `%s` in %s; \
                         draws from a shared generator advance its state in worker \
                         completion order, so the values depend on scheduling"
                        callee name d.Callgraph.key
                    in
                    findings :=
                      Finding.v ~rule:rule_id ~severity ~loc ~message ~hint
                      :: !findings)
                  (captured_streams arg))
            args
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
