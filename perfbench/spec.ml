(* Every metric the benchmark prints, with its unit and direction. The
   regression bounds live only in BENCHMARK.json; [check] keeps the two
   in agreement. *)

open Perfbench_lib

type metric = { name : string; unit_ : string; better : Stats.better }

let m name unit_ better = { name; unit_; better }
let lower = Stats.Lower
let higher = Stats.Higher

(* Printed by untraced runs, on every workload. A work unit is a
   simulated cycle (the two sim workloads), a CTMC state (exact), a model solve
   (model-sweep), a linted source line (lint-tree) or a reproduced
   artifact (reproduce-quick). *)
let end_to_end =
  [ m "setup_s" "s" lower; m "work_per_s" "work/s" higher; m "peak_rss_mb" "MB" lower ]

(* Printed by traced runs, on every workload; a layer the workload does
   not use reads 0. *)
let per_layer ~artifacts =
  [
    m "eventsim.pending_mean" "count" lower;
    m "eventsim.pending_max" "count" lower;
    m "eventsim.replay_ns_per_event" "ns/event" lower;
    m "activemsg.events_per_cycle" "event/cycle" lower;
    m "activemsg.ns_per_event" "ns/event" lower;
    m "activemsg.self_ns_per_event" "ns/event" lower;
    m "activemsg.tries_per_cycle" "try/cycle" lower;
    m "activemsg.retransmits_per_kcycle" "1/kcycle" lower;
    m "activemsg.goodput_ratio" "ratio" higher;
    m "dist.ns_per_sample" "ns/sample" lower;
    m "dist.samples_per_cycle" "sample/cycle" lower;
    m "prng.ns_per_draw" "ns/draw" lower;
    m "markov.states" "count" lower;
    m "markov.sweeps" "count" lower;
    m "markov.explore_s" "s" lower;
    m "markov.sweep_s" "s" lower;
    m "markov.ns_per_state" "ns/state" lower;
    m "markov.ns_per_state_sweep" "ns/state" lower;
    m "markov.explore_share" "ratio" lower;
    m "core.all_to_all.us_per_solve" "us/solve" lower;
    m "core.all_to_all.evals_per_solve" "eval/solve" lower;
    m "core.general.ms_per_solve" "ms/solve" lower;
    m "core.general.iters_per_solve" "iter/solve" lower;
    m "core.general.ns_per_iter_per_node2" "ns" lower;
    m "core.client_server.us_per_solve" "us/solve" lower;
    m "core.nonconverged_ratio" "ratio" lower;
    m "analysis.files" "count" lower;
    m "analysis.lines" "count" lower;
    m "analysis.cmt_units" "count" lower;
    m "analysis.callgraph_defs" "count" lower;
    m "analysis.syntactic_jobs1_ms" "ms" lower;
    m "analysis.syntactic_jobs2_ms" "ms" lower;
    m "analysis.cmt_load_ms" "ms" lower;
    m "analysis.callgraph_ms" "ms" lower;
    m "analysis.effects_ms" "ms" lower;
    m "analysis.absint_ms" "ms" lower;
    m "analysis.typed_rules_ms" "ms" lower;
    m "repro.tasks" "count" lower;
    m "repro.work_s" "s" lower;
    m "repro.span_s" "s" lower;
    m "repro.parallel_efficiency" "ratio" higher;
  ]
  @ List.map (fun a -> m (Printf.sprintf "repro.artifact.%s_s" a) "s" lower) artifacts
  @ [ m "bench.trace_overhead_ratio" "ratio" higher ]

let pp_metric ppf { name; unit_; better } =
  Format.fprintf ppf "%s %s %s" name unit_ (Stats.string_of_better better)

(* The text behind [--list]. *)
let pp ppf ~workloads ~artifacts =
  List.iter (Format.fprintf ppf "workload %s@.") workloads;
  List.iter (Format.fprintf ppf "end_to_end %a@." pp_metric) end_to_end;
  List.iter (Format.fprintf ppf "per_layer %a@." pp_metric) (per_layer ~artifacts)

(* Differences between the declarations above and a parsed
   BENCHMARK.json, one line each; [] when they agree. *)
let check json ~workloads ~artifacts =
  let str key v = match Json.member key v with Some (Json.String s) -> Some s | _ -> None in
  let list key = match Json.member key json with Some (Json.List l) -> l | _ -> [] in
  let declared kind expected =
    let found =
      List.map
        (fun v ->
          ( Option.value (str "name" v) ~default:"?",
            Option.value (str "unit" v) ~default:"?",
            Option.value (str "better" v) ~default:"?" ))
        (list kind)
    in
    let expected =
      List.map (fun e -> (e.name, e.unit_, Stats.string_of_better e.better)) expected
    in
    let show (n, u, b) = Printf.sprintf "%s %s %s" n u b in
    List.filter_map
      (fun e ->
        if List.mem e found then None
        else Some (Printf.sprintf "%s: BENCHMARK.json lacks %s" kind (show e)))
      expected
    @ List.filter_map
        (fun f ->
          if List.mem f expected then None
          else Some (Printf.sprintf "%s: the benchmark does not print %s" kind (show f)))
        found
  in
  let json_workloads = List.filter_map (str "name") (list "workloads") in
  let workload_drift =
    if json_workloads = workloads then []
    else
      [
        Printf.sprintf "workloads: BENCHMARK.json has [%s], the benchmark runs [%s]"
          (String.concat " " json_workloads) (String.concat " " workloads);
      ]
  in
  workload_drift
  @ declared "end_to_end" end_to_end
  @ declared "per_layer" (per_layer ~artifacts)
