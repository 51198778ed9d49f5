(* Observability wall-clock ban: no definition reachable from the
   observability layer (anything under lib/obs — the recorder, probes and
   emitters) may reach a wall clock. Trace timestamps must be simulated
   cycles only, or traces stop being byte-identical across runs and the
   jobs-independence guarantee (same trace at any --jobs) breaks. *)

let rule_id = "obs-no-wallclock"

let severity = Finding.Error

let summary = "a wall clock reachable from the observability layer (lib/obs)"

let hint =
  "timestamp trace events with the simulated clock (Engine.now / the machine's \
   event times) and thread it to the emitter explicitly; wall-clock time makes \
   traces differ run to run and across --jobs"

let entry_dir = "lib/obs"

let check (graph : Callgraph.t) =
  Callgraph.reach graph
    ~entry:(fun d -> Callgraph.dir_prefix entry_dir d.source)
    (fun d chain ->
      List.filter_map
        (fun (r : Callgraph.ref_site) ->
          if List.mem r.target Taint_rules.wall_clocks then
            let message =
              Printf.sprintf "the wall clock %s; reachable as %s" r.target
                (String.concat " -> " chain)
            in
            Some (Finding.v ~rule:rule_id ~severity ~loc:r.ref_loc ~message ~hint)
          else None)
        d.refs)
