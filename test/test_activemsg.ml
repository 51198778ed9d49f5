(* Tests for lopc_activemsg: spec construction, simulator exactness in
   contention-free configurations, conservation laws, determinism. *)

module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Welford = Lopc_stats.Welford
module Rng = Lopc_prng.Rng

let feq tol = Alcotest.(check (float tol))

let single_client_spec ?(protocol_processor = false) ~work ~handler ~wire () =
  {
    Spec.nodes = 2;
    threads = [| None; Some { Spec.work; route = (fun _ _ -> [ 0 ]); window = 1 } |];
    handler;
    reply_handler = handler;
    wire;
    protocol_processor;
    gap = 0.;
    polling = false;
    barrier = None;
    topology = None;
    fault = None;
  }

let test_contention_free_exact () =
  (* One client, one server, constants: R must be exactly W + 2St + 2So. *)
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:500 () in
  feq 1e-9 "R exact" 150. (Metrics.mean_response r.Machine.metrics);
  feq 1e-9 "Rw = W" 100. (Welford.mean r.Machine.metrics.Metrics.rw);
  feq 1e-9 "Rq = So" 20. (Welford.mean r.Machine.metrics.Metrics.rq);
  feq 1e-9 "Ry = So" 20. (Welford.mean r.Machine.metrics.Metrics.ry);
  feq 1e-9 "wire = 2 St" 10. (Welford.mean r.Machine.metrics.Metrics.wire_time)

let test_contention_free_throughput_littles_law () =
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:500 () in
  (* X·R = 1 thread. *)
  feq 1e-6 "Little" 1.
    (Metrics.throughput r.Machine.metrics *. Metrics.mean_response r.Machine.metrics)

let test_utilization_identities () =
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:2000 () in
  let m = r.Machine.metrics in
  (* Per cycle of 150: server busy 20 => avg request util over 2 nodes is
     20/150/2; client reply util 20/150/2; thread util 100/150/2. *)
  feq 1e-6 "Uq" (20. /. 150. /. 2.) (Metrics.avg_request_util m);
  feq 1e-6 "Uy" (20. /. 150. /. 2.) (Metrics.avg_reply_util m);
  feq 1e-6 "thread util" (100. /. 150. /. 2.) (Metrics.avg_thread_util m)

let test_queue_littles_law () =
  (* Qq = lambda * Rq at the server in the deterministic case. *)
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:2000 () in
  let m = r.Machine.metrics in
  feq 1e-6 "Qq via Little" (20. /. 150. /. 2.) (Metrics.avg_request_queue m)

let test_protocol_processor_no_preemption () =
  (* With a protocol processor, handlers never inflate Rw even under heavy
     incoming traffic. *)
  let spec =
    Spec.all_to_all ~protocol_processor:true ~nodes:8 ~work:(D.Constant 100.)
      ~handler:(D.Constant 50.) ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:20_000 () in
  feq 1e-9 "Rw = W exactly" 100. (Welford.mean r.Machine.metrics.Metrics.rw)

let test_message_passing_preemption_inflates_rw () =
  let spec =
    Spec.all_to_all ~nodes:8 ~work:(D.Constant 100.) ~handler:(D.Constant 50.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:20_000 () in
  Alcotest.(check bool) "Rw > W under interrupts" true
    (Welford.mean r.Machine.metrics.Metrics.rw > 100.)

let test_determinism () =
  let mk () =
    Spec.all_to_all ~nodes:4 ~work:(D.Exponential 100.) ~handler:(D.Exponential 20.)
      ~wire:(D.Constant 5.) ()
  in
  let a = Machine.run ~seed:7 ~spec:(mk ()) ~cycles:5000 () in
  let b = Machine.run ~seed:7 ~spec:(mk ()) ~cycles:5000 () in
  feq 0. "identical runs" (Metrics.mean_response a.Machine.metrics)
    (Metrics.mean_response b.Machine.metrics);
  let c = Machine.run ~seed:8 ~spec:(mk ()) ~cycles:5000 () in
  Alcotest.(check bool) "different seed differs" true
    (Metrics.mean_response a.Machine.metrics <> Metrics.mean_response c.Machine.metrics)

let test_handler_service_scv_observed () =
  (* The machine must actually impose the requested handler C². *)
  let spec =
    Spec.all_to_all ~nodes:8 ~work:(D.Exponential 500.)
      ~handler:(D.of_mean_scv ~mean:100. ~scv:0.5) ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:40_000 () in
  let service = r.Machine.metrics.Metrics.handler_service in
  let observed = Welford.variance service /. (Welford.mean service ** 2.) in
  Alcotest.(check bool) "observed C2 ~ 0.5" true (Float.abs (observed -. 0.5) < 0.05);
  feq 2. "observed mean ~ 100" 100.
    (Float.round (Welford.mean r.Machine.metrics.Metrics.handler_service /. 2.) *. 2.)

let test_multi_hop_wire_count () =
  (* Two hops: wire = 3 traversals (2 requests + 1 reply). *)
  let spec =
    {
      Spec.nodes = 3;
      threads =
        [| Some { Spec.work = D.Constant 50.; route = (fun _ _ -> [ 1; 2 ]); window = 1 }; None; None |];
      handler = D.Constant 10.;
      reply_handler = D.Constant 10.;
      wire = D.Constant 7.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let r = Machine.run ~spec ~cycles:500 () in
  feq 1e-9 "3 wire traversals" 21. (Welford.mean r.Machine.metrics.Metrics.wire_time);
  (* Two request handlers, contention free: Rq = 2·So. *)
  feq 1e-9 "Rq sums hops" 20. (Welford.mean r.Machine.metrics.Metrics.rq);
  feq 1e-9 "R full" (50. +. 21. +. 20. +. 10.) (Metrics.mean_response r.Machine.metrics)

let test_self_request_allowed () =
  (* A route to the origin itself runs both handlers locally. *)
  let spec =
    {
      Spec.nodes = 2;
      threads = [| Some { Spec.work = D.Constant 10.; route = (fun _ _ -> [ 0 ]); window = 1 }; None |];
      handler = D.Constant 3.;
      reply_handler = D.Constant 3.;
      wire = D.Constant 1.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let r = Machine.run ~spec ~cycles:200 () in
  feq 1e-9 "self request cycle" (10. +. 2. +. 6.) (Metrics.mean_response r.Machine.metrics)

let test_round_robin_route_cycles () =
  let route = Spec.round_robin ~nodes:4 ~origin:1 in
  let g = Rng.create 1 in
  let seq = List.concat_map (route g) [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "cycles through others" [ 2; 3; 0; 2; 3; 0 ] seq

let test_uniform_other_excludes_origin () =
  let route = Spec.uniform_other ~nodes:5 ~origin:2 in
  let g = Rng.create 3 in
  for issued = 0 to 999 do
    match route g issued with
    | [ d ] ->
      if d = 2 || d < 0 || d >= 5 then Alcotest.failf "bad destination %d" d
    | _ -> Alcotest.fail "expected single hop"
  done

let test_hotspot_fraction () =
  let route = Spec.hotspot ~nodes:10 ~origin:1 ~hot:0 ~fraction:0.4 in
  let g = Rng.create 9 in
  let hits = ref 0 in
  let n = 20_000 in
  for issued = 0 to n - 1 do
    match route g issued with
    | [ 0 ] -> incr hits
    | [ _ ] -> ()
    | _ -> Alcotest.fail "expected single hop"
  done;
  (* P(hot) = 0.4 + 0.6/9. *)
  let expected = 0.4 +. (0.6 /. 9.) in
  let frac = Float.of_int !hits /. Float.of_int n in
  Alcotest.(check bool) "hot fraction" true (Float.abs (frac -. expected) < 0.02)

let test_spec_validation () =
  (match
     Spec.validate
       {
         Spec.nodes = 0;
         threads = [||];
         handler = D.Constant 1.;
         reply_handler = D.Constant 1.;
         wire = D.Constant 1.;
         protocol_processor = false;
         gap = 0.;
         polling = false;
         barrier = None;
         topology = None;
         fault = None;
       }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero nodes accepted");
  match
    Spec.validate
      {
        Spec.nodes = 2;
        threads = [| None; None |];
        handler = D.Uniform (5., 1.);
        reply_handler = D.Constant 1.;
        wire = D.Constant 1.;
        protocol_processor = false;
        gap = 0.;
        polling = false;
        barrier = None;
        topology = None;
        fault = None;
      }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid handler distribution accepted"

let test_run_validation () =
  let spec =
    single_client_spec ~work:(D.Constant 1.) ~handler:(D.Constant 1.) ~wire:(D.Constant 1.) ()
  in
  Alcotest.(check bool) "cycles <= 0 rejected" true
    (try
       ignore (Machine.run ~spec ~cycles:0 ());
       false
     with Invalid_argument _ -> true);
  let no_threads = { spec with Spec.threads = [| None; None |] } in
  Alcotest.(check bool) "threadless machine rejected" true
    (try
       ignore (Machine.run ~spec:no_threads ~cycles:10 ());
       false
     with Invalid_argument _ -> true)

let test_route_out_of_range_rejected () =
  let spec =
    {
      Spec.nodes = 2;
      threads = [| Some { Spec.work = D.Constant 1.; route = (fun _ _ -> [ 5 ]); window = 1 }; None |];
      handler = D.Constant 1.;
      reply_handler = D.Constant 1.;
      wire = D.Constant 1.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  Alcotest.(check bool) "bad hop rejected" true
    (try
       ignore (Machine.run ~spec ~cycles:10 ());
       false
     with Invalid_argument _ -> true)

let test_client_server_roles () =
  let spec =
    Lopc_workloads.Pattern.to_spec ~nodes:8 ~work:(D.Constant 10.) ~handler:(D.Constant 2.)
      ~wire:(D.Constant 1.) (Lopc_workloads.Pattern.Client_server { servers = 3 })
  in
  for i = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "node %d is server" i) true
      (spec.Spec.threads.(i) = None)
  done;
  for i = 3 to 7 do
    Alcotest.(check bool) (Printf.sprintf "node %d is client" i) true
      (spec.Spec.threads.(i) <> None)
  done

let test_window_pipeline_exact () =
  (* Window 2, constant distributions, round trip far shorter than W: the
     pipeline fills and the thread never blocks. Each steady-state cycle
     is W plus one reply-handler preemption: X = 1/(W + So). The request
     latency is 2·St + 2·So (no queueing anywhere). *)
  let spec =
    {
      Spec.nodes = 2;
      threads =
        [| None;
           Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 2 } |];
      handler = D.Constant 10.;
      reply_handler = D.Constant 10.;
      wire = D.Constant 5.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let r = Machine.run ~spec ~cycles:2000 () in
  let m = r.Machine.metrics in
  feq 1e-9 "throughput 1/(W+So)" (1. /. 110.) (Metrics.throughput m);
  feq 1e-9 "latency 2St + 2So" 30. (Welford.mean m.Metrics.latency);
  feq 1e-9 "Rw = W + So preemption" 110. (Welford.mean m.Metrics.rw)

let test_window_one_has_blocking_semantics () =
  (* window = 1 must reproduce the blocking numbers exactly. *)
  let spec =
    {
      Spec.nodes = 2;
      threads =
        [| None;
           Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 1 } |];
      handler = D.Constant 10.;
      reply_handler = D.Constant 10.;
      wire = D.Constant 5.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let r = Machine.run ~spec ~cycles:1000 () in
  feq 1e-9 "R = W + 2St + 2So" 130. (Metrics.mean_response r.Machine.metrics);
  feq 1e-9 "latency = R - W" 30. (Welford.mean r.Machine.metrics.Metrics.latency)

let test_window_validation () =
  let spec =
    {
      Spec.nodes = 2;
      threads =
        [| None; Some { Spec.work = D.Constant 1.; route = (fun _ _ -> [ 0 ]); window = 0 } |];
      handler = D.Constant 1.;
      reply_handler = D.Constant 1.;
      wire = D.Constant 1.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  match Spec.validate spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "window 0 accepted"

let test_window_increases_throughput () =
  let mk window =
    Spec.all_to_all ~window ~nodes:8 ~work:(D.Exponential 500.)
      ~handler:(D.Exponential 100.) ~wire:(D.Constant 20.) ()
  in
  let x window =
    Metrics.throughput (Machine.run ~spec:(mk window) ~cycles:20_000 ()).Machine.metrics
  in
  Alcotest.(check bool) "window 4 beats window 1" true (x 4 > x 1 *. 1.05)

let test_polling_defers_handlers () =
  (* Deterministic scenario: node 1 (W=35) sends to node 0 (W=100), both
     constant. Under polling, node 0 finishes its quantum before serving
     the request, so node 1's first cycle takes
     35 + 5 + (wait 60 + 10) + 5 + 10 = 125; under interrupts it takes
     35 + 5 + 10 + 5 + 10 = 65. *)
  let mk polling =
    {
      Spec.nodes = 3;
      threads =
        [| Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 2 ]); window = 1 };
           Some { Spec.work = D.Constant 35.; route = (fun _ _ -> [ 0 ]); window = 1 };
           None |];
      handler = D.Constant 10.;
      reply_handler = D.Constant 10.;
      wire = D.Constant 5.;
      protocol_processor = false;
      gap = 0.;
      polling;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let first_r polling =
    let r = Machine.run ~warmup_cycles:0 ~spec:(mk polling) ~cycles:1 () in
    Metrics.mean_response r.Machine.metrics
  in
  feq 1e-9 "interrupt first cycle" 65. (first_r false);
  feq 1e-9 "polling first cycle" 125. (first_r true)

let test_polling_never_preempts () =
  (* Under polling Rw never exceeds W plus queue-drain waits at cycle
     start; with constant work the thread quantum itself is never cut. *)
  let spec =
    Spec.all_to_all ~polling:true ~nodes:8 ~work:(D.Constant 300.)
      ~handler:(D.Constant 50.) ~wire:(D.Constant 5.) ()
  in
  let recorder = Lopc_obs.Recorder.create ~limit:2_000_000 () in
  let obs = Lopc_obs.Sim_probe.create ~recorder ~nodes:8 () in
  ignore (Machine.run ~obs ~spec ~cycles:10_000 ());
  (* The minimum traced Rw must be exactly W (a cycle with no waiting). *)
  let min_rw =
    List.fold_left
      (fun acc (e : Lopc_obs.Recorder.event) ->
        match List.assoc_opt "rw" e.args with
        | Some (Lopc_obs.Recorder.Num rw) when e.name = "cycle" -> Float.min acc rw
        | _ -> acc)
      Float.infinity
      (Lopc_obs.Recorder.events recorder)
  in
  feq 1e-9 "min Rw = W" 300. min_rw

let test_polling_pp_mutually_exclusive () =
  let spec =
    {
      (Spec.all_to_all ~polling:true ~nodes:4 ~work:(D.Constant 1.)
         ~handler:(D.Constant 1.) ~wire:(D.Constant 1.) ())
      with
      Spec.protocol_processor = true;
    }
  in
  match Spec.validate spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "polling + protocol processor accepted"

let test_gap_serializes_ni () =
  (* Two clients send to one server simultaneously with gap 8: the wire
     arrivals coincide, so the server's receive NI serializes them 8
     apart. Hand-computed first-cycle times: both send at 100, inject by
     108, wire-arrive 113; deliveries at 121 and 129; handlers (2) finish
     123 and 131; reply injections finish 131 and 139; wire-arrive 136
     and 144; client NIs deliver 144 and 152; reply handlers finish 146
     and 154. *)
  let spec =
    {
      Spec.nodes = 3;
      threads =
        [| None;
           Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 1 };
           Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 1 } |];
      handler = D.Constant 2.;
      reply_handler = D.Constant 2.;
      wire = D.Constant 5.;
      protocol_processor = false;
      gap = 8.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let r = Machine.run ~warmup_cycles:0 ~spec ~cycles:2 () in
  feq 1e-9 "mean of 146 and 154" 150. (Metrics.mean_response r.Machine.metrics)

let test_gap_contention_free_exact () =
  (* Single client, constants: R = W + 2·(g + St + g) + 2·So exactly. *)
  let spec =
    {
      Spec.nodes = 2;
      threads = [| None; Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 1 } |];
      handler = D.Constant 20.;
      reply_handler = D.Constant 20.;
      wire = D.Constant 5.;
      protocol_processor = false;
      gap = 3.;
      polling = false;
      barrier = None;
      topology = None;
      fault = None;
    }
  in
  let r = Machine.run ~spec ~cycles:500 () in
  feq 1e-9 "R includes four NI passages" (100. +. (2. *. (3. +. 5. +. 3.)) +. 40.)
    (Metrics.mean_response r.Machine.metrics)

let test_gap_zero_unchanged () =
  (* gap = 0 must leave the original numbers untouched. *)
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:500 () in
  feq 1e-9 "unchanged" 150. (Metrics.mean_response r.Machine.metrics)

let test_trace_collector () =
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let collector, observe = Lopc_activemsg.Trace.collector ~limit:5 () in
  ignore (Machine.run ~warmup_cycles:10 ~on_cycle:observe ~spec ~cycles:50 ());
  let reports = Lopc_activemsg.Trace.reports collector in
  Alcotest.(check int) "bounded at limit" 5 (List.length reports);
  List.iter
    (fun (r : Machine.cycle_report) ->
      Alcotest.(check int) "origin is the client" 1 r.Machine.origin;
      feq 1e-9 "Rw" 100. (r.Machine.sent -. r.Machine.started);
      feq 1e-9 "cycle" 150. (r.Machine.completed -. r.Machine.started);
      Alcotest.(check bool) "measured flag" true r.Machine.measured)
    reports

let test_trace_renders () =
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let collector, observe = Lopc_activemsg.Trace.collector ~limit:3 () in
  ignore (Machine.run ~warmup_cycles:10 ~on_cycle:observe ~spec ~cycles:20 ());
  let rendered =
    Format.asprintf "%a" (Lopc_activemsg.Trace.pp_timeline ~width:40)
      (Lopc_activemsg.Trace.reports collector)
  in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions the node" true (contains "node" rendered);
  Alcotest.(check bool) "has a legend" true (contains "legend" rendered)

let test_timeline_edge_cases () =
  let render ~width reports =
    Format.asprintf "%a" (Lopc_activemsg.Trace.pp_timeline ~width) reports
  in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  let report ~started ~sent ~completed =
    {
      Machine.origin = 0;
      started;
      sent;
      completed;
      request_residence = Float.max 0. (completed -. sent -. 10.);
      reply_residence = 5.;
      wire = 5.;
      measured = true;
      counted = true;
    }
  in
  Alcotest.(check string) "empty list" "(no cycles collected)\n" (render ~width:40 []);
  (* A single report still gets a legend, a scale line, and one bar. *)
  let one = render ~width:40 [ report ~started:0. ~sent:100. ~completed:180. ] in
  Alcotest.(check bool) "single: legend" true (contains "legend" one);
  Alcotest.(check bool) "single: scale" true (contains "scale" one);
  Alcotest.(check bool) "single: total" true (contains "R = 180.0" one);
  (* width=1 collapses every segment to its one-column floor without
     crashing or dropping the bar delimiters. *)
  let narrow = render ~width:1 [ report ~started:0. ~sent:100. ~completed:180. ] in
  Alcotest.(check bool) "width 1: bar" true (contains "|=" narrow);
  Alcotest.(check bool) "width 1: total" true (contains "R = 180.0" narrow);
  (* A zero-duration cycle must not divide by zero or emit segments. *)
  let degenerate =
    render ~width:1
      [
        {
          Machine.origin = 3;
          started = 7.;
          sent = 7.;
          completed = 7.;
          request_residence = 0.;
          reply_residence = 0.;
          wire = 0.;
          measured = true;
          counted = true;
        };
      ]
  in
  Alcotest.(check bool) "degenerate: node line" true (contains "node   3" degenerate);
  Alcotest.(check bool) "degenerate: empty bar" true (contains "||" degenerate)

let test_observer_sees_warmup_flag () =
  let spec =
    single_client_spec ~work:(D.Constant 10.) ~handler:(D.Constant 1.)
      ~wire:(D.Constant 1.) ()
  in
  let saw_unmeasured = ref false and saw_measured = ref false in
  let observe (r : Machine.cycle_report) =
    if r.Machine.measured then saw_measured := true else saw_unmeasured := true
  in
  ignore (Machine.run ~warmup_cycles:5 ~on_cycle:observe ~spec ~cycles:5 ());
  Alcotest.(check bool) "observer sees warm-up cycles" true !saw_unmeasured;
  Alcotest.(check bool) "observer sees measured cycles" true !saw_measured

let test_backlog_metrics () =
  (* Contention-free single client: every arrival finds an empty node. *)
  let spec =
    single_client_spec ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:500 () in
  let m = r.Machine.metrics in
  Alcotest.(check int) "max backlog 1" 1 (Metrics.max_handler_backlog m);
  feq 1e-9 "arrivals find empty nodes" 0. (Welford.mean (Metrics.arrival_backlog m))

let test_backlog_grows_under_load () =
  let spec =
    Spec.all_to_all ~nodes:16 ~work:(D.Exponential 10.) ~handler:(D.Exponential 200.)
      ~wire:(D.Constant 40.) ()
  in
  let r = Machine.run ~spec ~cycles:20_000 () in
  let m = r.Machine.metrics in
  Alcotest.(check bool) "saturated nodes queue deeply" true
    (Metrics.max_handler_backlog m >= 3);
  Alcotest.(check bool) "arrivals see queueing" true
    (Welford.mean (Metrics.arrival_backlog m) > 0.3)

let test_bard_assumption_directly () =
  (* Bard equates the arrival-instant queue with the steady-state queue.
     The Arrival Theorem says an arrival actually sees the N−1-customer
     network, i.e. strictly LESS: measured arrival queues run ~25–40%
     below the time average. This one-sided gap is the root of LoPC's
     documented pessimism (+6% worst case). *)
  let spec =
    Spec.all_to_all ~nodes:16 ~work:(D.Exponential 1000.)
      ~handler:(D.Exponential 200.) ~wire:(D.Constant 40.) ()
  in
  let r = Machine.run ~spec ~cycles:40_000 () in
  let m = r.Machine.metrics in
  let arrival = Welford.mean (Metrics.arrival_backlog m) in
  let steady = Metrics.avg_request_queue m +. Metrics.avg_reply_queue m in
  Alcotest.(check bool) "arrivals see less than steady state" true (arrival < steady);
  Alcotest.(check bool) "but the same order of magnitude" true
    (arrival > 0.4 *. steady)

let test_barrier_preserves_contention_free_schedule () =
  (* Synchronized permutation + constant service: the barrier adds cost
     but the per-cycle response stays exactly contention free, and the
     round cadence is R + cost. *)
  let base =
    Spec.all_to_all ~staggered:true ~nodes:4 ~work:(D.Constant 1000.)
      ~handler:(D.Constant 10.) ~wire:(D.Constant 5.) ()
  in
  let spec = { base with Spec.barrier = Some { Spec.interval = 1; cost = 20. } } in
  let r = Machine.run ~spec ~cycles:2000 () in
  feq 1e-9 "R still contention free" 1030. (Metrics.mean_response r.Machine.metrics);
  feq 1e-6 "cadence includes barrier cost" (4. /. 1050.)
    (Metrics.throughput r.Machine.metrics)

let test_barrier_resynchronizes_jitter () =
  (* With jittered work, per-cycle barriers stop the staggered schedule
     from drifting into the random-arrival regime. *)
  let run barrier =
    let base =
      Spec.all_to_all ~staggered:true ~nodes:16 ~work:(D.Uniform (950., 1050.))
        ~handler:(D.Constant 200.) ~wire:(D.Constant 40.) ()
    in
    let spec = { base with Spec.barrier } in
    Metrics.mean_response (Machine.run ~spec ~cycles:10_000 ()).Machine.metrics
  in
  let without = run None in
  let with_barrier = run (Some { Spec.interval = 1; cost = 0. }) in
  Alcotest.(check bool) "barrier reduces response time" true
    (with_barrier < without -. 50.)

let test_barrier_validation () =
  let base =
    Spec.all_to_all ~nodes:4 ~work:(D.Constant 1.) ~handler:(D.Constant 1.)
      ~wire:(D.Constant 1.) ()
  in
  (match Spec.validate { base with Spec.barrier = Some { Spec.interval = 0; cost = 0. } } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "interval 0 accepted");
  let windowed =
    Spec.all_to_all ~window:2 ~nodes:4 ~work:(D.Constant 1.) ~handler:(D.Constant 1.)
      ~wire:(D.Constant 1.) ()
  in
  match
    Spec.validate { windowed with Spec.barrier = Some { Spec.interval = 1; cost = 0. } }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "barrier + windowed accepted"

let test_staggered_constant_contention_free () =
  (* Synchronized permutation traffic: every cycle all nodes send at the
     same instant, each to a distinct destination which is itself blocked
     waiting for its own reply. Requests interrupt nobody and never queue,
     so the response time is exactly the contention-free cycle — the
     "carefully scheduled" pattern of the paper's introduction. *)
  let nodes = 4 in
  let spec =
    Spec.all_to_all ~staggered:true ~nodes ~work:(D.Constant 1000.)
      ~handler:(D.Constant 10.) ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:4000 () in
  feq 1e-9 "interleaved => no contention" 1030. (Metrics.mean_response r.Machine.metrics)

(* One spec, two runs, one seed: the round-robin cursor is per run, so the
   second run repeats the first exactly instead of resuming where the
   first left the cursor. *)
let test_staggered_rerun_identical () =
  let spec =
    Spec.all_to_all ~staggered:true ~nodes:8 ~work:(D.Exponential 1000.)
      ~handler:(D.Constant 200.) ~wire:(D.Constant 40.) ()
  in
  let run () = Machine.run ~seed:42 ~spec ~cycles:50 () in
  let a = run () and b = run () in
  let readouts (r : Machine.result) =
    let m = r.Machine.metrics in
    [ Metrics.mean_response m; Metrics.throughput m; Welford.mean m.Metrics.rq;
      Welford.mean m.Metrics.ry; r.Machine.final_time; Float.of_int r.Machine.events ]
  in
  Alcotest.(check (list (float 0.))) "second run repeats the first" (readouts a) (readouts b)

(* Minor words the whole run allocates, per executed event (seed 1). *)
let words_per_event ~spec ~cycles =
  let before = Gc.minor_words () in
  let r = Machine.run ~seed:1 ~spec ~cycles () in
  (Gc.minor_words () -. before) /. Float.of_int r.Machine.events

(* Allocation budget of the per-event path on the fig 5.2 machine (P = 32,
   exponential W = 200, constant So = 200, St = 40). Measured at 15.4
   minor words per event under OCaml 5.1: 46.7 before events became int
   codes on the heap (no closure, event record or handle per event) and
   the thread states, arrival times and clock stopped boxing floats, 19.0
   before in-flight messages moved from 7-word records into a pool of
   ids. One more boxed float (2 words) per event would break the
   ceiling. *)
let test_event_allocation_budget () =
  let spec =
    Spec.all_to_all ~nodes:32 ~work:(D.Exponential 200.) ~handler:(D.Constant 200.)
      ~wire:(D.Constant 40.) ()
  in
  let words = words_per_event ~spec ~cycles:20_000 in
  if words > 17. then Alcotest.failf "%g minor words per event (ceiling 17)" words

(* The same budget on the fault artifact's machine at 2% drop, 1%
   duplication and 1% delay spikes (P = 16, exponential W = 1000 and
   So = 200, St = 40, timeout 20000, 10 tries): 20.8 words per event,
   down from 64.5 when every request allocated its retry record, timer
   closure and handle and every send its [emit] closure, and from 24.5
   when every message copy allocated its record. One more boxed float
   per event would break the ceiling. *)
let test_fault_allocation_budget () =
  let fault =
    Lopc_activemsg.Fault.create ~drop:0.02 ~duplicate:0.01 ~delay_epsilon:0.01
      ~delay_spike:(D.Exponential 400.) ~max_tries:10 ~timeout:20_000. ()
  in
  let spec =
    Lopc_workloads.Pattern.to_spec ~fault ~nodes:16 ~work:(D.of_mean_scv ~mean:1000. ~scv:1.)
      ~handler:(D.of_mean_scv ~mean:200. ~scv:1.) ~wire:(D.Constant 40.)
      Lopc_workloads.Pattern.All_to_all
  in
  let words = words_per_event ~spec ~cycles:10_000 in
  if words > 22.5 then Alcotest.failf "%g minor words per event (ceiling 22.5)" words

(* Time-scaling law (ROADMAP item 4): scaling every time parameter — W,
   So, St, the delay-spike mean and the retransmission timeout — by a
   power of two k rescales every sampled duration and every sum of them
   exactly, so each comparison of times, each tie and each RNG draw comes
   out the same. The run executes the same events; its R and final time
   are exactly k times the unscaled run's, and its X exactly 1/k of it. *)
let test_time_scaling_law () =
  let module Pattern = Lopc_workloads.Pattern in
  let module Fault = Lopc_activemsg.Fault in
  let machine ?fault ~c2 pattern k =
    Pattern.to_spec ?fault ~nodes:8 ~work:(D.of_mean_scv ~mean:(1000. *. k) ~scv:1.)
      ~handler:(D.of_mean_scv ~mean:(200. *. k) ~scv:c2) ~wire:(D.Constant (40. *. k))
      pattern
  in
  let faulty k =
    let fault =
      Fault.create ~drop:0.05 ~duplicate:0.02 ~delay_epsilon:0.05
        ~delay_spike:(D.Exponential (400. *. k)) ~max_tries:4 ~timeout:(5000. *. k) ()
    in
    machine ~fault ~c2:1. Pattern.All_to_all k
  in
  let configs =
    [
      ("all-to-all C2=0", machine ~c2:0. Pattern.All_to_all);
      ("all-to-all C2=0.5", machine ~c2:0.5 Pattern.All_to_all);
      ("all-to-all C2=2", machine ~c2:2. Pattern.All_to_all);
      ("faulty", faulty);
      ("hotspot", machine ~c2:1. (Pattern.Hotspot { hot = 0; fraction = 0.3 }));
      ("client-server", machine ~c2:1. (Pattern.Client_server { servers = 2 }));
    ]
  in
  List.iter
    (fun (name, spec_of) ->
      let run k = Machine.run ~seed:5 ~spec:(spec_of k) ~cycles:2_000 () in
      let base = run 1. in
      List.iter
        (fun k ->
          let r = run k in
          let label what = Printf.sprintf "%s, k=%g: %s" name k what in
          let exact what expected actual =
            if not (Float.equal expected actual) then
              Alcotest.failf "%s: expected %h, got %h" (label what) expected actual
          in
          Alcotest.(check int) (label "events") base.Machine.events r.Machine.events;
          exact "final time" (k *. base.Machine.final_time) r.Machine.final_time;
          exact "R"
            (k *. Metrics.mean_response base.Machine.metrics)
            (Metrics.mean_response r.Machine.metrics);
          exact "X"
            (Metrics.throughput base.Machine.metrics /. k)
            (Metrics.throughput r.Machine.metrics))
        [ 2.; 4.; 0.5 ])
    configs

(* Simulator conservation laws across random configurations. *)
let prop_littles_law_all_to_all =
  QCheck.Test.make ~name:"sim: X*R = P for blocking all-to-all" ~count:12
    QCheck.(
      quad (int_range 2 12) (float_range 1. 100.) (float_range 5. 300.)
        (float_range 10. 2000.))
    (fun (nodes, st, so, w) ->
      let spec =
        Spec.all_to_all ~nodes ~work:(D.Exponential w) ~handler:(D.Exponential so)
          ~wire:(D.Constant st) ()
      in
      let r = Machine.run ~spec ~cycles:8_000 () in
      let m = r.Machine.metrics in
      (* With blocking threads exactly P customers circulate. *)
      let customers = Metrics.throughput m *. Metrics.mean_response m in
      Float.abs (customers -. Float.of_int nodes) /. Float.of_int nodes < 0.05)

let prop_sim_utilization_conserved =
  QCheck.Test.make ~name:"sim: Uq = Uy = X/P * So (Little at the handlers)" ~count:12
    QCheck.(triple (int_range 2 10) (float_range 20. 300.) (float_range 50. 1500.))
    (fun (nodes, so, w) ->
      let spec =
        Spec.all_to_all ~nodes ~work:(D.Exponential w) ~handler:(D.Exponential so)
          ~wire:(D.Constant 10.) ()
      in
      let r = Machine.run ~spec ~cycles:8_000 () in
      let m = r.Machine.metrics in
      let expected = Metrics.throughput m /. Float.of_int nodes *. so in
      Float.abs (Metrics.avg_request_util m -. expected) /. expected < 0.08
      && Float.abs (Metrics.avg_reply_util m -. expected) /. expected < 0.08)

let prop_sim_response_decomposes =
  QCheck.Test.make ~name:"sim: R = Rw + wire + Rq + Ry per configuration" ~count:12
    QCheck.(triple (int_range 2 10) (float_range 20. 300.) (float_range 0. 1500.))
    (fun (nodes, so, w) ->
      let spec =
        Spec.all_to_all ~nodes ~work:(D.Exponential w) ~handler:(D.Exponential so)
          ~wire:(D.Constant 25.) ()
      in
      let r = Machine.run ~spec ~cycles:8_000 () in
      let m = r.Machine.metrics in
      let parts =
        Welford.mean m.Metrics.rw +. Welford.mean m.Metrics.wire_time
        +. Welford.mean m.Metrics.rq +. Welford.mean m.Metrics.ry
      in
      let whole = Metrics.mean_response m in
      Float.abs (parts -. whole) /. whole < 1e-9)

(* [lopc_cli simulate]'s percentiles, pinned bit for bit at the values
   [Metrics] computed on the per-cycle path before the estimators moved to
   [Trace.response_percentiles]; the specs are the ones [simulate] builds
   (all-to-all, St = 40, So = 200, exponential W). The counted reports are
   exactly [Metrics]' response samples: folding them in report order
   gives the mean R it reports, bit for bit. *)
let test_simulate_percentiles_pinned () =
  let module Pattern = Lopc_workloads.Pattern in
  let module Fault = Lopc_activemsg.Fault in
  let check name ?fault ~nodes ~c2 ~w ~cycles ~seed expected =
    let spec =
      Pattern.to_spec ?fault ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
        ~handler:(D.of_mean_scv ~mean:200. ~scv:c2) ~wire:(D.Constant 40.)
        Pattern.All_to_all
    in
    let estimates, percentiles =
      Lopc_activemsg.Trace.response_percentiles [ 0.5; 0.9; 0.95; 0.99 ]
    in
    let response = Welford.create () in
    let on_cycle (r : Machine.cycle_report) =
      percentiles r;
      if r.Machine.counted then Welford.add response (r.Machine.completed -. r.Machine.started)
    in
    let m = (Machine.run ~seed ~on_cycle ~spec ~cycles ()).Machine.metrics in
    Alcotest.(check (list string))
      (name ^ ": percentiles") expected
      (List.map (Printf.sprintf "%h") (estimates ()));
    Alcotest.(check string)
      (name ^ ": counted reports are the response samples")
      (Printf.sprintf "%h" (Metrics.mean_response m))
      (Printf.sprintf "%h" (Welford.mean response))
  in
  check "c2 0, W 64" ~nodes:32 ~c2:0. ~w:64. ~cycles:20_000 ~seed:1
    [ "0x1.622e6decda722p+9"; "0x1.1134d6e4cf06ep+10"; "0x1.3681be821e81p+10";
      "0x1.9df594a0663bcp+10" ];
  check "c2 1, W 1000" ~nodes:32 ~c2:1. ~w:1000. ~cycles:20_000 ~seed:2
    [ "0x1.5a742b0c8d57ap+10"; "0x1.a1947553613fap+11"; "0x1.04ab4b3e7ed89p+12";
      "0x1.755943aa12d34p+12" ];
  (* [simulate]'s fault defaults: spike mean 10 St, timeout
     8 (W + 2 St + 4 So), fixed backoff, 8 tries. *)
  let fault =
    Fault.create ~drop:0.02 ~duplicate:0.01 ~delay_epsilon:0.01
      ~delay_spike:(D.Exponential 400.) ~timeout:(8. *. (1000. +. 80. +. 800.)) ()
  in
  check "faulty, P 16" ~fault ~nodes:16 ~c2:1. ~w:1000. ~cycles:10_000 ~seed:3
    [ "0x1.59670581888bp+10"; "0x1.c6451cc70b08bp+11"; "0x1.537e3806fb437p+12";
      "0x1.0d6819c78628ap+14" ]

(* Bit-identity pins for the machine paths that carry messages: for each
   machine below, the [%h] of mean R, the final time and the event count
   of one short run (P = 16, exponential W = 500, St = 40, 3,000 cycles,
   seed 7), recorded before in-flight messages moved from records into a
   pool of ids. A pool bug (an id freed early, reused while in flight,
   or a field left over from its last message) changes these bits. The
   fault machine retries at most 3 times on a 2,500-cycle timeout, so it
   discards stale replies (318 here), delivers duplicates (275) and
   abandons a cycle. *)
let test_message_paths_pinned () =
  let module Pattern = Lopc_workloads.Pattern in
  let module Fault = Lopc_activemsg.Fault in
  let module Topology = Lopc_topology.Topology in
  let work = D.Exponential 500. and wire = D.Constant 40. in
  let base ?protocol_processor ?polling ?gap ?window ?(handler = D.Constant 150.) () =
    Spec.all_to_all ?protocol_processor ?polling ?gap ?window ~nodes:16 ~work ~handler
      ~wire ()
  in
  let check name spec expected =
    let r = Machine.run ~seed:7 ~spec ~cycles:3_000 () in
    Alcotest.(check (list string))
      name expected
      [ Printf.sprintf "%h" (Metrics.mean_response r.Machine.metrics);
        Printf.sprintf "%h" r.Machine.final_time; string_of_int r.Machine.events ]
  in
  check "torus with gap"
    { (base ~gap:12. ~handler:(D.Exponential 150.) ()) with
      Spec.topology = Some (Topology.create ~nodes:16 ~per_hop:5. ~link_time:10. ()) }
    [ "0x1.0e9f5f6e3aa91p+10"; "0x1.090e96bfb6ac6p+18"; "37130" ];
  check "multi-hop, 2 hops"
    (Pattern.to_spec ~nodes:16 ~work ~handler:(D.Constant 150.) ~wire
       (Pattern.Multi_hop { hops = 2 }))
    [ "0x1.5159628fb34c7p+10"; "0x1.472b6cea31b7dp+18"; "28041" ];
  check "window 4" (base ~window:4 ())
    [ "0x1.3c2bf0290542p+10"; "0x1.89bcee386e54fp+17"; "20029" ];
  check "barrier"
    { (base ()) with Spec.barrier = Some { Spec.interval = 4; cost = 30. } }
    [ "0x1.f65b870badbecp+9"; "0x1.75dc107018882p+18"; "20104" ];
  check "polling" (base ~polling:true ~handler:(D.Exponential 150.) ())
    [ "0x1.2f21dc7497293p+10"; "0x1.28ff2c349ad5p+18"; "20052" ];
  check "protocol processor" (base ~protocol_processor:true ())
    [ "0x1.cf6c152424e81p+9"; "0x1.c39da285e77dfp+17"; "20032" ];
  let fault =
    Fault.create ~drop:0.03 ~duplicate:0.05 ~delay_epsilon:0.02
      ~delay_spike:(D.Exponential 400.) ~max_tries:3 ~timeout:2500. ()
  in
  check "faults with duplication"
    (Pattern.to_spec ~fault ~nodes:16 ~work ~handler:(D.Constant 150.) ~wire
       Pattern.All_to_all)
    [ "0x1.25ee6ce2a9fdbp+10"; "0x1.1fe4f35ae54c1p+18"; "21309" ]

let suite =
  [
    Alcotest.test_case "contention-free exactness" `Quick test_contention_free_exact;
    Alcotest.test_case "throughput Little's law" `Quick test_contention_free_throughput_littles_law;
    Alcotest.test_case "utilization identities" `Quick test_utilization_identities;
    Alcotest.test_case "queue-length Little's law" `Quick test_queue_littles_law;
    Alcotest.test_case "protocol processor: Rw = W" `Quick test_protocol_processor_no_preemption;
    Alcotest.test_case "message passing: Rw > W" `Quick test_message_passing_preemption_inflates_rw;
    Alcotest.test_case "determinism in seed" `Quick test_determinism;
    Alcotest.test_case "handler C2 is realized" `Slow test_handler_service_scv_observed;
    Alcotest.test_case "multi-hop accounting" `Quick test_multi_hop_wire_count;
    Alcotest.test_case "self-request supported" `Quick test_self_request_allowed;
    Alcotest.test_case "round-robin route" `Quick test_round_robin_route_cycles;
    Alcotest.test_case "uniform_other excludes origin" `Quick test_uniform_other_excludes_origin;
    Alcotest.test_case "hotspot fraction" `Quick test_hotspot_fraction;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "run validation" `Quick test_run_validation;
    Alcotest.test_case "route range checking" `Quick test_route_out_of_range_rejected;
    Alcotest.test_case "client-server roles" `Quick test_client_server_roles;
    Alcotest.test_case "staggered pattern is contention free" `Quick test_staggered_constant_contention_free;
    QCheck_alcotest.to_alcotest prop_littles_law_all_to_all;
    QCheck_alcotest.to_alcotest prop_sim_utilization_conserved;
    QCheck_alcotest.to_alcotest prop_sim_response_decomposes;
    Alcotest.test_case "trace collector" `Quick test_trace_collector;
    Alcotest.test_case "trace renders" `Quick test_trace_renders;
    Alcotest.test_case "timeline edge cases" `Quick test_timeline_edge_cases;
    Alcotest.test_case "observer warm-up flag" `Quick test_observer_sees_warmup_flag;
    Alcotest.test_case "backlog metrics" `Quick test_backlog_metrics;
    Alcotest.test_case "backlog grows under load" `Slow test_backlog_grows_under_load;
    Alcotest.test_case "Bard assumption measured" `Slow test_bard_assumption_directly;
    Alcotest.test_case "barrier keeps schedule contention-free" `Quick test_barrier_preserves_contention_free_schedule;
    Alcotest.test_case "barrier resynchronizes jitter" `Slow test_barrier_resynchronizes_jitter;
    Alcotest.test_case "barrier validation" `Quick test_barrier_validation;
    Alcotest.test_case "gap serializes the NI" `Quick test_gap_serializes_ni;
    Alcotest.test_case "gap contention-free exactness" `Quick test_gap_contention_free_exact;
    Alcotest.test_case "gap zero unchanged" `Quick test_gap_zero_unchanged;
    Alcotest.test_case "polling defers handlers" `Quick test_polling_defers_handlers;
    Alcotest.test_case "polling never preempts" `Quick test_polling_never_preempts;
    Alcotest.test_case "polling + PP rejected" `Quick test_polling_pp_mutually_exclusive;
    Alcotest.test_case "window validation" `Quick test_window_validation;
    Alcotest.test_case "window increases throughput" `Slow test_window_increases_throughput;
    Alcotest.test_case "windowed pipeline exactness" `Quick test_window_pipeline_exact;
    Alcotest.test_case "window 1 is blocking" `Quick test_window_one_has_blocking_semantics;
    Alcotest.test_case "staggered spec reruns identically" `Quick test_staggered_rerun_identical;
    Alcotest.test_case "per-event allocation budget" `Quick test_event_allocation_budget;
    Alcotest.test_case "time-scaling law" `Quick test_time_scaling_law;
    Alcotest.test_case "fault machine per-event allocation budget" `Quick
      test_fault_allocation_budget;
    Alcotest.test_case "simulate percentiles pinned" `Quick test_simulate_percentiles_pinned;
    Alcotest.test_case "message paths pinned" `Quick test_message_paths_pinned;
  ]
