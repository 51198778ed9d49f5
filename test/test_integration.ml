(* End-to-end validation: the LoPC model against the event-driven
   simulator, reproducing the paper's accuracy claims (§5.3, §6). *)

module D = Lopc_dist.Distribution
module Pattern = Lopc_workloads.Pattern
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Welford = Lopc_stats.Welford
module A = Lopc.All_to_all
module CS = Lopc.Client_server
module G = Lopc.General
module Params = Lopc.Params
module Sim_probe = Lopc_obs.Sim_probe
module Recorder = Lopc_obs.Recorder

let simulate ?(nodes = 16) ?(seed = 42) ?(cycles = 50_000) ~w ~so ~st ~c2 pattern =
  let spec =
    Pattern.to_spec ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
      ~handler:(D.of_mean_scv ~mean:so ~scv:c2) ~wire:(D.Constant st) pattern
  in
  Machine.run ~seed ~spec ~cycles ()

(* §5.3 headline: LoPC within ~6% (pessimistic) of the simulator. *)
let test_all_to_all_accuracy () =
  List.iter
    (fun (w, c2) ->
      let params = Params.create ~c2 ~p:16 ~st:40. ~so:200. () in
      let model = (A.solve params ~w).A.r in
      let sim = simulate ~w ~so:200. ~st:40. ~c2 Pattern.All_to_all in
      let measured = Metrics.mean_response sim.Machine.metrics in
      let err = (model -. measured) /. measured in
      if Float.abs err > 0.08 then
        Alcotest.failf "W=%g C2=%g: model %g vs sim %g (err %.1f%%)" w c2 model measured
          (100. *. err))
    [ (0., 0.); (200., 0.); (1000., 0.); (1000., 1.); (2048., 0.) ]

(* §5.3: a naive LogP analysis under-predicts substantially at small W and
   its absolute error persists at large W. *)
let test_logp_underprediction () =
  let c2 = 0. in
  let params = Params.create ~c2 ~p:16 ~st:40. ~so:200. () in
  let check_w w expect_below =
    let sim = simulate ~w ~so:200. ~st:40. ~c2 Pattern.All_to_all in
    let measured = Metrics.mean_response sim.Machine.metrics in
    let logp = Lopc.Logp.cycle_time params ~w in
    let err = (logp -. measured) /. measured in
    if err > expect_below then
      Alcotest.failf "W=%g: LogP err %.1f%% not below %.1f%%" w (100. *. err)
        (100. *. expect_below)
  in
  (* At W=0 the under-prediction is large (paper: −37%). *)
  check_w 0. (-0.25);
  (* Even at W=1024 the error is still noticeable (paper: −13%). *)
  check_w 1024. (-0.05)

let test_logp_absolute_error_constant () =
  (* The contention-free model's absolute error stays ~ one handler as W
     grows (paper §5.3). *)
  let c2 = 0. in
  let params = Params.create ~c2 ~p:16 ~st:40. ~so:200. () in
  let abs_err w =
    let sim = simulate ~w ~so:200. ~st:40. ~c2 Pattern.All_to_all in
    Metrics.mean_response sim.Machine.metrics -. Lopc.Logp.cycle_time params ~w
  in
  let e_small = abs_err 256. and e_large = abs_err 2048. in
  Alcotest.(check bool) "error ~ one handler at W=256" true
    (e_small > 100. && e_small < 320.);
  Alcotest.(check bool) "error ~ one handler at W=2048" true
    (e_large > 100. && e_large < 320.)

let test_model_pessimistic_at_zero_work () =
  (* Bard's approximation overestimates queueing, so at W=0 the model is
     above the simulator (paper: +6% worst case). *)
  let params = Params.create ~c2:0. ~p:16 ~st:40. ~so:200. () in
  let model = (A.solve params ~w:0.).A.r in
  let sim = simulate ~w:0. ~so:200. ~st:40. ~c2:0. Pattern.All_to_all in
  let measured = Metrics.mean_response sim.Machine.metrics in
  Alcotest.(check bool) "model >= sim at W=0" true (model >= measured *. 0.995)

let test_breakdown_components_match () =
  (* Fig 5-3: per-component residencies agree with the simulator. *)
  let params = Params.create ~c2:0. ~p:16 ~st:40. ~so:200. () in
  let model = A.solve params ~w:1000. in
  let sim = simulate ~w:1000. ~so:200. ~st:40. ~c2:0. Pattern.All_to_all in
  let m = sim.Machine.metrics in
  let check name modeled measured tol =
    let err = Float.abs (modeled -. measured) /. measured in
    if err > tol then
      Alcotest.failf "%s: model %g vs sim %g (err %.1f%%)" name modeled measured
        (100. *. err)
  in
  check "Rw" model.A.rw (Welford.mean m.Metrics.rw) 0.08;
  check "Rq" model.A.rq (Welford.mean m.Metrics.rq) 0.12;
  check "Ry" model.A.ry (Welford.mean m.Metrics.ry) 0.15;
  check "R" model.A.r (Metrics.mean_response m) 0.06

let test_queue_lengths_match () =
  let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  let model = A.solve params ~w:1000. in
  let sim = simulate ~w:1000. ~so:200. ~st:40. ~c2:1. Pattern.All_to_all in
  let m = sim.Machine.metrics in
  let rel a b = Float.abs (a -. b) /. Float.max 1e-9 b in
  Alcotest.(check bool) "Qq within 15%" true (rel model.A.qq (Metrics.avg_request_queue m) < 0.15);
  Alcotest.(check bool) "Uq within 10%" true (rel model.A.uq (Metrics.avg_request_util m) < 0.10)

let test_client_server_accuracy () =
  (* Fig 6-2: model conservative within a few % across the curve. Bard's
     approximation is known to be most pessimistic when a station
     saturates, so the deeply overloaded Ps=1 point gets a wider band. *)
  let so = 131. and st = 40. and w = 1000. in
  let params = Params.create ~c2:1. ~p:16 ~st ~so () in
  List.iter
    (fun (servers, tolerance) ->
      let model = (CS.throughput params ~w ~servers).CS.throughput in
      let sim =
        simulate ~cycles:40_000 ~w ~so ~st ~c2:1. (Pattern.Client_server { servers })
      in
      let measured = Metrics.throughput sim.Machine.metrics in
      let err = (model -. measured) /. measured in
      if Float.abs err > tolerance then
        Alcotest.failf "Ps=%d: model %g vs sim %g (err %.1f%%)" servers model measured
          (100. *. err))
    [ (1, 0.15); (2, 0.08); (3, 0.06); (5, 0.06); (8, 0.06) ]

let test_client_server_sim_peak_matches_eq68 () =
  let so = 131. and st = 40. and w = 500. in
  let params = Params.create ~c2:1. ~p:16 ~st ~so () in
  let best_sim = ref 1 and best_x = ref 0. in
  for servers = 1 to 15 do
    let sim =
      simulate ~cycles:20_000 ~w ~so ~st ~c2:1. (Pattern.Client_server { servers })
    in
    let x = Metrics.throughput sim.Machine.metrics in
    if x > !best_x then begin
      best_x := x;
      best_sim := servers
    end
  done;
  let predicted = CS.optimal_servers params ~w in
  if abs (!best_sim - predicted) > 1 then
    Alcotest.failf "simulated peak at Ps=%d, Eq 6.8 predicts %d" !best_sim predicted

let test_protocol_processor_validation () =
  (* Shared-memory mode: model vs simulator with protocol processors. *)
  let params = Params.create ~c2:0. ~p:16 ~st:40. ~so:200. () in
  let model = (A.solve ~execution:A.Protocol_processor params ~w:500.).A.r in
  let spec =
    Pattern.to_spec ~protocol_processor:true ~nodes:16 ~work:(D.Exponential 500.)
      ~handler:(D.Constant 200.) ~wire:(D.Constant 40.) Pattern.All_to_all
  in
  let sim = Machine.run ~spec ~cycles:50_000 () in
  let measured = Metrics.mean_response sim.Machine.metrics in
  let err = (model -. measured) /. measured in
  if Float.abs err > 0.08 then
    Alcotest.failf "PP mode: model %g vs sim %g (err %.1f%%)" model measured (100. *. err)

let test_hotspot_validation () =
  let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  let pat = Pattern.Hotspot { hot = 0; fraction = 0.3 } in
  let model = (G.solve (Pattern.to_general params ~w:1000. pat)).G.system_throughput in
  let sim = simulate ~w:1000. ~so:200. ~st:40. ~c2:1. pat in
  let measured = Metrics.throughput sim.Machine.metrics in
  let err = (model -. measured) /. measured in
  if Float.abs err > 0.06 then
    Alcotest.failf "hotspot: model %g vs sim %g (err %.1f%%)" model measured (100. *. err)

let test_multihop_validation () =
  let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  let pat = Pattern.Multi_hop { hops = 2 } in
  let model = (G.solve (Pattern.to_general params ~w:1000. pat)).G.system_throughput in
  let sim = simulate ~w:1000. ~so:200. ~st:40. ~c2:1. pat in
  let measured = Metrics.throughput sim.Machine.metrics in
  let err = (model -. measured) /. measured in
  if Float.abs err > 0.06 then
    Alcotest.failf "multi-hop: model %g vs sim %g (err %.1f%%)" model measured (100. *. err)

let test_seed_stability_of_validation () =
  (* The validation conclusion must not depend on the seed: three seeds,
     all within tolerance. *)
  let params = Params.create ~c2:0. ~p:16 ~st:40. ~so:200. () in
  let model = (A.solve params ~w:1000.).A.r in
  List.iter
    (fun seed ->
      let sim = simulate ~seed ~w:1000. ~so:200. ~st:40. ~c2:0. Pattern.All_to_all in
      let measured = Metrics.mean_response sim.Machine.metrics in
      let err = Float.abs ((model -. measured) /. measured) in
      if err > 0.08 then Alcotest.failf "seed %d: err %.1f%%" seed (100. *. err))
    [ 1; 7; 1234 ]

let test_windowed_model_accuracy () =
  (* The §7 windowed extension against the simulator's windowed mode. *)
  let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  List.iter
    (fun window ->
      let model = (Lopc.Windowed.solve ~window params ~w:1000.).Lopc.Windowed.node_rate in
      let spec =
        Lopc_activemsg.Spec.all_to_all ~window ~nodes:16 ~work:(D.Exponential 1000.)
          ~handler:(D.Exponential 200.) ~wire:(D.Constant 40.) ()
      in
      let sim =
        Metrics.throughput (Machine.run ~spec ~cycles:50_000 ()).Machine.metrics /. 16.
      in
      let err = (model -. sim) /. sim in
      if Float.abs err > 0.12 then
        Alcotest.failf "window %d: model %g vs sim %g (err %.1f%%)" window model sim
          (100. *. err);
      (* The extension is conservative: it never over-predicts by much. *)
      if err > 0.03 then
        Alcotest.failf "window %d: model optimistic by %.1f%%" window (100. *. err))
    [ 1; 2; 4; 8 ]

let test_polling_model_accuracy () =
  let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  List.iter
    (fun w ->
      let model = (A.solve ~execution:A.Polling params ~w).A.r in
      let spec =
        Lopc_activemsg.Spec.all_to_all ~polling:true ~nodes:16 ~work:(D.Exponential w)
          ~handler:(D.Exponential 200.) ~wire:(D.Constant 40.) ()
      in
      let sim =
        Metrics.mean_response (Machine.run ~spec ~cycles:50_000 ()).Machine.metrics
      in
      let err = (model -. sim) /. sim in
      if Float.abs err > 0.05 then
        Alcotest.failf "polling W=%g: model %g vs sim %g (err %.1f%%)" w model sim
          (100. *. err))
    [ 0.; 100.; 500.; 1000.; 4000. ]

let test_fault_model_accuracy () =
  (* The analytical fault companion against the fault-injecting simulator
     across the NOW loss regime (timeout well above the round trip, ample
     retry budget — the model's validity envelope). *)
  let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  List.iter
    (fun drop ->
      let timeout = 20_000. and max_tries = 10 in
      let model =
        Lopc.Fault_model.solve
          (Lopc.Fault_model.config ~drop ~max_tries ~timeout ())
          params ~w:1000.
      in
      let fault = Lopc_activemsg.Fault.create ~drop ~max_tries ~timeout () in
      let spec =
        Lopc_workloads.Pattern.to_spec ~fault ~nodes:16 ~work:(D.Exponential 1000.)
          ~handler:(D.Exponential 200.) ~wire:(D.Constant 40.)
          Lopc_workloads.Pattern.All_to_all
      in
      let m = (Machine.run ~spec ~cycles:50_000 ()).Machine.metrics in
      let sim = Metrics.mean_response m in
      let err = (model.Lopc.Fault_model.r -. sim) /. sim in
      if Float.abs err > 0.08 then
        Alcotest.failf "drop %g: model %g vs sim %g (err %.1f%%)" drop
          model.Lopc.Fault_model.r sim (100. *. err);
      let tries_err = model.Lopc.Fault_model.tries -. Metrics.mean_tries m in
      if Float.abs tries_err > 0.02 then
        Alcotest.failf "drop %g: retry inflation %g vs measured %g" drop
          model.Lopc.Fault_model.tries (Metrics.mean_tries m))
    [ 0.01; 0.05 ]

(* Differential check of the observability layer: the busy spans the
   probe records integrate to exactly the utilizations Metrics reports
   (both sides see the same transitions when there is no warm-up reset),
   and the traced request utilization lands on the AMVA-predicted [Uq]. *)
let traced_run ~warmup_cycles ~spec ~cycles =
  let nodes = Array.length spec.Lopc_activemsg.Spec.threads in
  let recorder = Recorder.create ~limit:2_000_000 () in
  let obs = Sim_probe.create ~recorder ~nodes () in
  let r = Machine.run ?warmup_cycles ~obs ~spec ~cycles () in
  Alcotest.(check int) "trace kept every event" 0 (Recorder.dropped recorder);
  (Recorder.events recorder, r)

(* Mean over nodes of the fraction of [0, now] that node [i]'s track
   [track i] spends inside a span named [span]. *)
let span_utilization events ~nodes ~now ~track ~span =
  let series = Array.init nodes (fun _ -> Series.create ~window:1000. ()) in
  let owner = Hashtbl.create nodes in
  Array.iteri (fun i _ -> Hashtbl.replace owner (track i) i) series;
  List.iter
    (fun (e : Recorder.event) ->
      match Hashtbl.find_opt owner e.track with
      | Some i when e.name = span ->
        Series.update series.(i) ~now:e.ts
          (match e.kind with Recorder.Begin -> 1. | _ -> 0.)
      | _ -> ())
    events;
  Array.fold_left (fun acc s -> acc +. Series.average s ~now) 0. series
  /. float_of_int nodes

let test_probe_utilization_matches_metrics () =
  let nodes = 16 in
  let spec =
    Pattern.to_spec ~nodes ~work:(D.of_mean_scv ~mean:1000. ~scv:1.)
      ~handler:(D.of_mean_scv ~mean:200. ~scv:0.) ~wire:(D.Constant 40.)
      Pattern.All_to_all
  in
  let events, r = traced_run ~warmup_cycles:(Some 0) ~spec ~cycles:20_000 in
  let m = r.Machine.metrics in
  let now = r.Machine.final_time in
  let close name probe metrics =
    if Float.abs (probe -. metrics) > 1e-9 then
      Alcotest.failf "%s: probe %.12g vs metrics %.12g" name probe metrics
  in
  let util track span = span_utilization events ~nodes ~now ~track ~span in
  close "thread utilization" (util (fun i -> 2 * i) "W") (Metrics.avg_thread_util m);
  close "request utilization"
    (util (fun i -> (2 * i) + 1) "Rq")
    (Metrics.avg_request_util m);
  close "reply utilization" (util (fun i -> (2 * i) + 1) "Ry") (Metrics.avg_reply_util m)

let test_probe_utilization_matches_amva () =
  (* Fig 5-2 operating points: the traced request-handler utilization
     should land on the model's Uq, not just on the simulator's own
     bookkeeping. *)
  List.iter
    (fun w ->
      let params = Params.create ~c2:0. ~p:16 ~st:40. ~so:200. () in
      let model = A.solve params ~w in
      let nodes = 16 in
      let spec =
        Pattern.to_spec ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
          ~handler:(D.Constant 200.) ~wire:(D.Constant 40.)
          Pattern.All_to_all
      in
      let events, r = traced_run ~warmup_cycles:None ~spec ~cycles:50_000 in
      let measured =
        span_utilization events ~nodes ~now:r.Machine.final_time
          ~track:(fun i -> (2 * i) + 1)
          ~span:"Rq"
      in
      let err = Float.abs (measured -. model.A.uq) /. model.A.uq in
      if err > 0.05 then
        Alcotest.failf "W=%g: probe Uq %g vs model %g (err %.1f%%)" w measured
          model.A.uq (100. *. err))
    [ 1000.; 2048. ]

(* Exact work counts for the two hot paths and the model: the P=4 exact
   chain, a 16-node simulator run (1000 cycles after 200 warm-up) and the
   Fig 5-2 model point at W=1000. Counts are deterministic, so a change in
   any of them means the code now does different work, never that a host
   was noisy; re-pin only for a change that means to alter that work. *)
let test_work_counts () =
  (match
     Lopc_markov.Exact_machine.all_to_all_status ~p:4 ~w:1000. ~so:200. ~st:40. ()
   with
  | Some r, Lopc_markov.Ctmc.Converged { iters } ->
    Alcotest.(check int) "exact P=4 states" 8865 r.Lopc_markov.Exact_machine.states;
    Alcotest.(check int) "exact P=4 sweeps" 16 iters
  | _, status ->
    Alcotest.failf "exact P=4: %s" (Harness.ctmc_status_to_string status));
  let spec =
    Pattern.to_spec ~nodes:16 ~work:(D.Exponential 1000.) ~handler:(D.Constant 200.)
      ~wire:(D.Constant 40.) Pattern.All_to_all
  in
  Alcotest.(check int) "simulator events" 6028
    (Machine.run ~warmup_cycles:200 ~spec ~cycles:1000 ()).Machine.events;
  let params = Params.create ~c2:0. ~p:32 ~st:40. ~so:200. () in
  match A.solve_status params ~w:1000. with
  | Some _, Lopc_numerics.Fixed_point.Converged { iters } ->
    Alcotest.(check int) "model evaluations" 11 iters
  | _, status ->
    Alcotest.failf "model: %s" (Lopc_numerics.Fixed_point.status_to_string status)

let suite =
  [
    Alcotest.test_case "all-to-all within paper accuracy" `Slow test_all_to_all_accuracy;
    Alcotest.test_case "LogP underpredicts (37% at W=0)" `Slow test_logp_underprediction;
    Alcotest.test_case "LogP absolute error ~ one handler" `Slow test_logp_absolute_error_constant;
    Alcotest.test_case "LoPC pessimistic at W=0" `Slow test_model_pessimistic_at_zero_work;
    Alcotest.test_case "Fig 5-3 component breakdown" `Slow test_breakdown_components_match;
    Alcotest.test_case "queue lengths and utilizations" `Slow test_queue_lengths_match;
    Alcotest.test_case "client-server curve accuracy" `Slow test_client_server_accuracy;
    Alcotest.test_case "simulated peak matches Eq 6.8" `Slow test_client_server_sim_peak_matches_eq68;
    Alcotest.test_case "protocol processor mode" `Slow test_protocol_processor_validation;
    Alcotest.test_case "hotspot pattern" `Slow test_hotspot_validation;
    Alcotest.test_case "multi-hop pattern" `Slow test_multihop_validation;
    Alcotest.test_case "seed stability" `Slow test_seed_stability_of_validation;
    Alcotest.test_case "windowed extension accuracy" `Slow test_windowed_model_accuracy;
    Alcotest.test_case "polling extension accuracy" `Slow test_polling_model_accuracy;
    Alcotest.test_case "fault model accuracy" `Slow test_fault_model_accuracy;
    Alcotest.test_case "probe utilization matches Metrics" `Slow
      test_probe_utilization_matches_metrics;
    Alcotest.test_case "probe utilization matches AMVA Uq" `Slow
      test_probe_utilization_matches_amva;
    Alcotest.test_case "work counts" `Quick test_work_counts;
  ]
