module Params = Lopc.Params
module A = Lopc.All_to_all
module CS = Lopc.Client_server
module Logp = Lopc.Logp
module D = Lopc_dist.Distribution
module Pattern = Lopc_workloads.Pattern
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Welford = Lopc_stats.Welford
module Station = Lopc_mva.Station
module Amva = Lopc_mva.Amva
module Exact_mva = Lopc_mva.Exact_mva
module Solution = Lopc_mva.Solution
module Priority = Lopc_mva.Priority
module Rng = Lopc_prng.Rng
module Recorder = Lopc_obs.Recorder
module Sim_probe = Lopc_obs.Sim_probe
module Fixed_point = Lopc_numerics.Fixed_point

type fidelity = Quick | Full

let sim_cycles = function Quick -> 8_000 | Full -> 60_000

(* --- task plans ----------------------------------------------------------- *)

(* An artifact is reproduced as an index-ordered array of independent
   tasks (one per sweep point, usually), each returning its rows, plus an
   ordered merge. The split between the two is what makes the parallel
   run byte-identical to the serial one: tasks own pre-derived PRNG
   streams, results are merged by index, and nothing depends on which
   worker ran what when. *)
type plan = {
  tasks : (unit -> Table.cell list list) array;
  assemble : Table.cell list list array -> Table.t;
}

let task_count plan = Array.length plan.tasks

let run_plan ~pool plan = plan.assemble (Parallel.run pool plan.tasks)

(* Per-point stream derivation, keyed on (artifact, point) and never on
   scheduling order: the artifact name is folded into the experiment seed
   (FNV-1a over the bytes), the per-point streams are Rng.split children
   taken in point order at plan-build time, and each simulator replication
   inside a task splits again from its point stream in a fixed textual
   order. Streams are therefore a pure function of
   (seed, artifact, point, replication). *)
let point_streams ~seed ~artifact n =
  let key =
    String.fold_left
      (fun acc c ->
        Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001b3L)
      0xcbf29ce484222325L artifact
  in
  Rng.split_n (Rng.create (Int64.to_int (Int64.logxor key (Int64.of_int seed)))) n

(* One task per point: [row ~rng point] returns that point's rows, drawing
   any replications from split children of [rng]. *)
let point_tasks ~seed ~artifact points row =
  let points = Array.of_list points in
  let streams = point_streams ~seed ~artifact (Array.length points) in
  Array.mapi (fun i point -> fun () -> row ~rng:streams.(i) point) points

(* Model-only artifacts need no streams; their points are still one task
   each so even the analytic tables parallelise. *)
let pure_tasks points row =
  Array.map (fun point () -> row point) (Array.of_list points)

(* An artifact has no fallback for a model without an answer: the
   [Fixed_point.Unsolved] that [get_exn] raises ends the sweep, which
   reports its status. *)
let all_to_all_model ?execution params ~w =
  Fixed_point.get_exn (A.solve_status ?execution params ~w)

(* Shared experiment constants (see EXPERIMENTS.md). *)
let nodes = 32
let wire_latency = 40.
let w_sweep = [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048. ]

let simulate_all_to_all ?(protocol_processor = false) ?obs ~fidelity ~rng ~w ~so ~c2
    () =
  let spec =
    Pattern.to_spec ~protocol_processor ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
      ~handler:(D.of_mean_scv ~mean:so ~scv:c2) ~wire:(D.Constant wire_latency)
      Pattern.All_to_all
  in
  (Machine.run ~rng ~spec ~cycles:(sim_cycles fidelity) ?obs ()).Machine.metrics

(* Per-point trace capture. Each sweep point writes its own file
   (artifact-label.trace.json) so the parallel runner never shares a
   recorder across domains, and the contents depend only on the point's
   pre-derived PRNG stream — identical at any [--jobs]. *)
let with_trace ~trace_dir ~artifact ~label ~nodes run =
  match trace_dir with
  | None -> run None
  | Some dir ->
    let recorder = Recorder.create ~limit:50_000 () in
    let obs = Sim_probe.create ~recorder ~nodes () in
    let result = run (Some obs) in
    Recorder.write_file recorder
      (Filename.concat dir (artifact ^ "-" ^ label ^ ".trace.json"));
    result

(* --- the artifacts -------------------------------------------------------- *)

(* Table 3.1: the LoPC <-> LogP parameter correspondence. *)
let table3_1_plan () =
  {
    tasks =
      [|
        (fun () ->
          List.map
            (fun (lopc, logp, description) ->
              [ Table.Text lopc; Table.Text logp; Table.Text description ])
            Params.logp_correspondence);
      |];
    assemble =
      Table.of_row_groups
        ~caption:"Table 3.1: architectural parameters of the LoPC model"
        ~columns:[ "LoPC"; "LogP"; "Description" ];
  }

let fig5_1_plan () =
  let handler_occupancies = [ 128.; 256.; 512.; 1024. ] in
  let c2_values = List.init 9 (fun i -> Float.of_int i *. 0.25) in
  {
    tasks =
      pure_tasks c2_values (fun c2 ->
          [
            Table.Float c2
            :: List.map
                 (fun so ->
                   let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
                   Table.Float (A.contention_fraction params ~w:1000.))
                 handler_occupancies;
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Fig 5-1: fraction of response time devoted to contention vs handler C2 \
           (W=1000, P=32, St=40)"
        ~columns:[ "C2"; "So=128"; "So=256"; "So=512"; "So=1024" ];
  }

let fig5_2_plan ?trace_dir ~fidelity ~seed =
  let so = 200. and c2 = 0. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      point_tasks ~seed ~artifact:"fig5.2" w_sweep (fun ~rng w ->
          let lb = A.lower_bound params ~w in
          let ub = A.upper_bound params ~w in
          let model = (all_to_all_model params ~w).A.r in
          let sim =
            with_trace ~trace_dir ~artifact:"fig5.2"
              ~label:(Printf.sprintf "w%g" w) ~nodes (fun obs ->
                let replication = Rng.split rng in
                Metrics.mean_response
                  (simulate_all_to_all ?obs ~fidelity ~rng:replication ~w ~so ~c2 ()))
          in
          [
            [
              Table.Float w; Table.Float lb; Table.Float model; Table.Float ub;
              Table.Float sim;
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Fig 5-2: all-to-all response time vs work (So=200, C2=0, P=32, St=40)"
        ~columns:[ "W"; "lower bound"; "LoPC"; "upper bound"; "simulator" ];
  }

let fig5_3_plan ~fidelity ~seed =
  let so = 200. and c2 = 0. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      point_tasks ~seed ~artifact:"fig5.3" w_sweep (fun ~rng w ->
          let s = all_to_all_model params ~w in
          let replication = Rng.split rng in
          let m = simulate_all_to_all ~fidelity ~rng:replication ~w ~so ~c2 () in
          let sim_rw = Welford.mean m.Metrics.rw -. w in
          let sim_rq = Welford.mean m.Metrics.rq -. so in
          let sim_ry = Welford.mean m.Metrics.ry -. so in
          [
            [
              Table.Float w;
              Table.Float (s.A.rw -. w);
              Table.Float sim_rw;
              Table.Float (s.A.rq -. so);
              Table.Float sim_rq;
              Table.Float (s.A.ry -. so);
              Table.Float sim_ry;
              Table.Float s.A.contention;
              Table.Float (sim_rw +. sim_rq +. sim_ry);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Fig 5-3: contention components per cycle, 32-node all-to-all (So=200, C2=0); \
           columns paired model/simulator"
        ~columns:
          [
            "W"; "thread (LoPC)"; "thread (sim)"; "request (LoPC)"; "request (sim)";
            "reply (LoPC)"; "reply (sim)"; "total (LoPC)"; "total (sim)";
          ];
  }

let table5_3_plan ~fidelity ~seed =
  let so = 200. and c2 = 0. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      point_tasks ~seed ~artifact:"table5.3" (0. :: w_sweep) (fun ~rng w ->
          let replication = Rng.split rng in
          let sim =
            Metrics.mean_response
              (simulate_all_to_all ~fidelity ~rng:replication ~w ~so ~c2 ())
          in
          let lopc = (all_to_all_model params ~w).A.r in
          let logp = Logp.cycle_time params ~w in
          [
            [
              Table.Float w;
              Table.Float sim;
              Table.Float lopc;
              Table.Float (100. *. (lopc -. sim) /. sim);
              Table.Float logp;
              Table.Float (100. *. (logp -. sim) /. sim);
              Table.Float ((sim -. logp) /. so);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Section 5.3 accuracy: LoPC vs contention-free LogP against the simulator \
           (So=200, C2=0, P=32). Paper claims: LoPC <= +6%; LogP down to -37% with an \
           absolute error of about one handler at every W."
        ~columns:
          [ "W"; "simulator"; "LoPC"; "LoPC err %"; "LogP"; "LogP err %";
            "LogP abs err / So" ];
  }

(* The server and client bound columns are the paper's two dotted LogP
   lines. *)
let fig6_2_plan ?trace_dir ~fidelity ~seed =
  let so = 131. and w = 1000. and c2 = 1. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  let optimum = CS.optimal_servers params ~w in
  let cycles = sim_cycles fidelity in
  {
    tasks =
      point_tasks ~seed ~artifact:"fig6.2"
        (List.init (nodes - 1) (fun i -> i + 1))
        (fun ~rng servers ->
          let model = (CS.throughput params ~w ~servers).CS.throughput in
          let spec =
            Pattern.to_spec ~nodes ~work:(D.Exponential w) ~handler:(D.Exponential so)
              ~wire:(D.Constant wire_latency)
              (Pattern.Client_server { servers })
          in
          let sim =
            with_trace ~trace_dir ~artifact:"fig6.2"
              ~label:(Printf.sprintf "s%02d" servers) ~nodes (fun obs ->
                let replication = Rng.split rng in
                Metrics.throughput
                  (Machine.run ~rng:replication ~spec ~cycles ?obs ()).Machine.metrics)
          in
          [
            [
              Table.Int servers;
              Table.Float model;
              Table.Float sim;
              Table.Float (Logp.server_bound params ~servers);
              Table.Float (Logp.client_bound params ~w ~clients:(nodes - servers));
              (if servers = optimum then Table.Text "optimal (Eq 6.8)" else Table.Missing);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          (Printf.sprintf
             "Fig 6-2: work-pile throughput vs servers (P=32, So=131, W=1000, St=40); Eq \
              6.8 optimum Ps*=%d (real-valued %.2f)"
             optimum (CS.optimal_servers_real params ~w))
        ~columns:
          [ "servers"; "LoPC X"; "simulator X"; "server bound"; "client bound"; "marker" ];
  }

let ablation_arrival_theorem_plan () =
  let so = 131. and w = 1000. in
  let think = w +. (2. *. wire_latency) +. so in
  {
    tasks =
      pure_tasks [ 1; 2; 4; 8; 16 ] (fun servers ->
          if servers >= nodes then []
          else begin
            let stations =
              Array.init servers (fun _ ->
                  Station.queueing ~scv:1. ~demand:(so /. Float.of_int servers) ())
            in
            let population = nodes - servers in
            let exact = Exact_mva.solve ~think_time:think ~stations ~population () in
            let solve approximation =
              (Fixed_point.get_exn
                 (Amva.solve_status ~approximation ~think_time:think ~stations ~population ()))
                .Solution.throughput
            in
            let xe = exact.Solution.throughput in
            let xb = solve Amva.Bard and xs = solve Amva.Schweitzer in
            [
              [
                Table.Int servers;
                Table.Float xe;
                Table.Float xb;
                Table.Float (100. *. (xb -. xe) /. xe);
                Table.Float xs;
                Table.Float (100. *. (xs -. xe) /. xe);
              ];
            ]
          end);
    assemble =
      Table.of_row_groups
        ~caption:
          "Ablation: Bard (paper) vs Schweitzer arrival-theorem approximation against \
           exact MVA on the Fig 6-2 network"
        ~columns:
          [ "servers"; "exact X"; "Bard X"; "Bard err %"; "Schweitzer X";
            "Schweitzer err %" ];
  }

let ablation_priority_plan () =
  let so = 200. and c2 = 0. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      pure_tasks w_sweep (fun w ->
          let s = all_to_all_model params ~w in
          let bkt =
            Priority.bkt ~work:w ~handler_service:so ~handler_queue:s.A.qq
              ~handler_util:s.A.uq
          in
          let shadow = Priority.shadow_server ~work:w ~handler_util:s.A.uq in
          [ [ Table.Float w; Table.Float s.A.rw; Table.Float bkt; Table.Float shadow ] ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Ablation: thread residence Rw under BKT (paper) vs shadow-server priority \
           approximations (evaluated at the LoPC fixed point)"
        ~columns:[ "W"; "Rw (model)"; "BKT"; "shadow server" ];
  }

let ablation_scv_correction_plan ~fidelity ~seed =
  let so = 200. in
  let with_corr = Params.create ~c2:0. ~p:nodes ~st:wire_latency ~so () in
  let without_corr = Params.create ~c2:1. ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      point_tasks ~seed ~artifact:"ablate.scv" [ 2.; 32.; 256.; 1024. ]
        (fun ~rng w ->
          (* Simulator runs constant handlers; the C2=1 model is what one
             would get by ignoring Eq 5.8. *)
          let replication = Rng.split rng in
          let sim =
            Metrics.mean_response
              (simulate_all_to_all ~fidelity ~rng:replication ~w ~so ~c2:0. ())
          in
          let corrected = (all_to_all_model with_corr ~w).A.r in
          let uncorrected = (all_to_all_model without_corr ~w).A.r in
          [
            [
              Table.Float w;
              Table.Float sim;
              Table.Float corrected;
              Table.Float (100. *. (corrected -. sim) /. sim);
              Table.Float uncorrected;
              Table.Float (100. *. (uncorrected -. sim) /. sim);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Ablation: Eq 5.8 residual-life correction on constant handlers (C2=0) — error \
           with the correction vs pretending handlers are exponential"
        ~columns:[ "W"; "simulator"; "LoPC C2=0"; "err %"; "LoPC C2=1"; "err %" ];
  }

(* The two methods [ablate.solvers] holds the bracketed solve against.
   A damped iteration of F from the contention-free bound, clamped there
   (damping 1/2, stopping when |F r − r| <= 1e-12·max 1 |r|, at most
   10,000 steps), returns F of its last iterate. *)
let damped_cycle_time params ~w =
  let lb = A.lower_bound params ~w in
  let rec iterate steps r =
    let fr = A.fixed_point_map params ~w (Float.max r lb) in
    if Float.abs (fr -. r) <= 1e-12 *. Float.max 1. (Float.abs r) then Float.max fr lb
    else if steps = 10_000 then
      Fixed_point.get_exn
        (None, Fixed_point.Diverged { iters = steps; residual = Float.abs (fr -. r) })
    else iterate (steps + 1) ((0.5 *. r) +. (0.5 *. fr))
  in
  iterate 1 lb

(* The smallest real root of the §5.3 quartic at or above the bound
   (within 1e-9 of it): [infinity] when there is none. *)
let quartic_cycle_time params ~w =
  let lb = A.lower_bound params ~w in
  Array.fold_left
    (fun acc r -> if r >= lb *. (1. -. 1e-9) then Float.min acc r else acc)
    Float.infinity
    (Lopc_numerics.Polynomial.real_roots (A.quartic params ~w))

let ablation_solvers_plan () =
  let grid =
    [ (16, 0., 100., 0.); (32, 40., 200., 0.); (32, 40., 200., 1000.);
      (64, 100., 500., 2000.) ]
  in
  {
    tasks =
      pure_tasks grid (fun (p, st, so, w) ->
          let params = Params.create ~c2:0. ~p ~st ~so () in
          let brent = (all_to_all_model params ~w).A.r in
          let iter = damped_cycle_time params ~w in
          let poly = quartic_cycle_time params ~w in
          [
            [
              Table.Int p;
              Table.Float st;
              Table.Float so;
              Table.Float w;
              Table.Float brent;
              Table.Float (iter -. brent);
              Table.Float (poly -. brent);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:"Ablation: agreement of the three all-to-all solution methods"
        ~columns:[ "P"; "St"; "So"; "W"; "R (Brent)"; "iteration - Brent"; "poly - Brent" ];
  }

let shared_memory_comparison_plan ~fidelity ~seed =
  let so = 200. and c2 = 0. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      point_tasks ~seed ~artifact:"shared-memory" [ 2.; 32.; 256.; 1024.; 2048. ]
        (fun ~rng w ->
          let mp = (all_to_all_model params ~w).A.r in
          let pp = (all_to_all_model ~execution:A.Protocol_processor params ~w).A.r in
          let rep_mp = Rng.split rng in
          let sim_mp =
            Metrics.mean_response
              (simulate_all_to_all ~fidelity ~rng:rep_mp ~w ~so ~c2 ())
          in
          let rep_pp = Rng.split rng in
          let sim_pp =
            Metrics.mean_response
              (simulate_all_to_all ~protocol_processor:true ~fidelity ~rng:rep_pp ~w
                 ~so ~c2 ())
          in
          [
            [
              Table.Float w;
              Table.Float mp;
              Table.Float sim_mp;
              Table.Float pp;
              Table.Float sim_pp;
              Table.Float (100. *. (mp -. pp) /. pp);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Section 5.1 shared memory: interrupt-driven vs protocol-processor cycle time \
           (model and simulator), with the message-passing penalty"
        ~columns:[ "W"; "msg-passing R"; "sim"; "protocol-proc R"; "sim"; "MP penalty %" ];
  }

let windowed_speedup_plan ~fidelity ~seed =
  let so = 200. and w = 1000. and c2 = 1. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  let saturation = Lopc.Windowed.saturation_rate params ~w in
  let base =
    (Fixed_point.get_exn (Lopc.Windowed.solve_status ~window:1 params ~w)).Lopc.Windowed.node_rate
  in
  {
    tasks =
      point_tasks ~seed ~artifact:"windowed" [ 1; 2; 3; 4; 6; 8 ] (fun ~rng window ->
          let model = Fixed_point.get_exn (Lopc.Windowed.solve_status ~window params ~w) in
          let spec =
            Lopc_activemsg.Spec.all_to_all ~window ~nodes ~work:(D.Exponential w)
              ~handler:(D.Exponential so) ~wire:(D.Constant wire_latency) ()
          in
          let replication = Rng.split rng in
          let sim =
            Metrics.throughput
              (Machine.run ~rng:replication ~spec ~cycles:(sim_cycles fidelity) ())
                .Machine.metrics
            /. Float.of_int nodes
          in
          [
            [
              Table.Int window;
              Table.Float model.Lopc.Windowed.node_rate;
              Table.Float sim;
              Table.Float (100. *. (model.Lopc.Windowed.node_rate -. sim) /. sim);
              Table.Float (model.Lopc.Windowed.node_rate /. base);
              Table.Float model.Lopc.Windowed.processor_util;
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          (Printf.sprintf
             "Section 7 extension: non-blocking (windowed) requests, per-node rate vs \
              window (P=32, W=1000, So=200, C2=1); saturation ceiling %.6f"
             saturation)
        ~columns:[ "window"; "model X/node"; "sim X/node"; "err %"; "speedup"; "proc util" ];
  }

(* Fig 6-2's work pile with multithreaded servers: Bard's AMVA with
   multi-server stations, which the general model does not have. *)
let ablation_multiserver_plan () =
  let so = 131. and w = 1000. in
  let think = w +. (2. *. wire_latency) +. so in
  {
    tasks =
      pure_tasks [ 1; 2; 3; 4; 5; 8; 12; 16 ] (fun servers ->
          let x threads =
            let demand = so /. Float.of_int servers in
            let stations =
              Array.init servers (fun _ -> Station.queueing ~scv:1. ~servers:threads ~demand ())
            in
            let population = nodes - servers in
            (Fixed_point.get_exn
               (Amva.solve_status ~approximation:Amva.Bard ~think_time:think ~stations
                  ~population ()))
              .Solution.throughput
          in
          [
            [
              Table.Int servers;
              Table.Float (x 1);
              Table.Float (x 2);
              Table.Float (x 4);
              Table.Float (100. *. ((x 2 /. x 1) -. 1.));
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Extension of section 6: work-pile throughput with multithreaded servers \
           (1/2/4 handler threads per server node; P=32, So=131, W=1000)"
        ~columns:
          [ "servers"; "X (1 thread)"; "X (2 threads)"; "X (4 threads)";
            "gain of 2nd thread %" ];
  }

(* Polling wins at fine grain, where saturated handlers no longer churn
   the thread with preemptions, and loses at coarse grain, where every
   request waits out a whole work quantum. *)
let notification_modes_plan ~fidelity ~seed =
  let so = 200. and c2 = 1. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  let cycles = sim_cycles fidelity in
  let simulate ~rng ~polling ~protocol_processor w =
    let spec =
      Lopc_activemsg.Spec.all_to_all ~protocol_processor ~polling ~nodes
        ~work:(D.Exponential w) ~handler:(D.of_mean_scv ~mean:so ~scv:c2)
        ~wire:(D.Constant wire_latency) ()
    in
    Metrics.mean_response (Machine.run ~rng ~spec ~cycles ()).Machine.metrics
  in
  {
    tasks =
      point_tasks ~seed ~artifact:"notification"
        [ 0.; 50.; 100.; 200.; 500.; 1000.; 2000.; 4000. ]
        (fun ~rng w ->
          let interrupt = (all_to_all_model params ~w).A.r in
          let polling = (all_to_all_model ~execution:A.Polling params ~w).A.r in
          let pp = (all_to_all_model ~execution:A.Protocol_processor params ~w).A.r in
          let rep_interrupt = Rng.split rng in
          let rep_polling = Rng.split rng in
          let rep_pp = Rng.split rng in
          [
            [
              Table.Float w;
              Table.Float interrupt;
              Table.Float
                (simulate ~rng:rep_interrupt ~polling:false ~protocol_processor:false w);
              Table.Float polling;
              Table.Float
                (simulate ~rng:rep_polling ~polling:true ~protocol_processor:false w);
              Table.Float pp;
              Table.Float
                (simulate ~rng:rep_pp ~polling:false ~protocol_processor:true w);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Section 3 contrast: handler notification mechanisms — interrupt (LoPC), \
           polling (LogP/CM-5) and protocol processor — cycle time, model beside \
           simulator (P=32, So=200, C2=1, St=40)"
        ~columns:
          [ "W"; "interrupt R"; "(sim)"; "polling R"; "(sim)"; "protocol R"; "(sim)" ];
  }

let gap_study_plan ~fidelity ~seed =
  let so = 200. and w = 1000. and c2 = 1. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  let cycles = sim_cycles fidelity in
  {
    tasks =
      point_tasks ~seed ~artifact:"gap" [ 0.; 5.; 10.; 25.; 50.; 100.; 200.; 400. ]
        (fun ~rng gap ->
          let model = Fixed_point.get_exn (Lopc.Gap.solve_status ~gap params ~w) in
          let spec =
            Lopc_activemsg.Spec.all_to_all ~gap ~nodes ~work:(D.Exponential w)
              ~handler:(D.Exponential so) ~wire:(D.Constant wire_latency) ()
          in
          let replication = Rng.split rng in
          let sim =
            Metrics.mean_response
              (Machine.run ~rng:replication ~spec ~cycles ()).Machine.metrics
          in
          [
            [
              Table.Float gap;
              Table.Float model.Lopc.Gap.r;
              Table.Float sim;
              Table.Float (100. *. model.Lopc.Gap.penalty);
              Table.Float model.Lopc.Gap.ni_utilization;
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          (Printf.sprintf
             "Section 3's dropped parameter: effect of the LogP gap g (P=32, W=1000, \
              So=200, C2=1); largest g with <5%% slowdown: %.1f cycles"
             (Lopc.Gap.tolerable_gap params ~w))
        ~columns:[ "g"; "model R"; "simulator R"; "penalty %"; "NI utilization" ];
  }

let assumptions_audit_plan ~fidelity ~seed =
  let so = 200. and c2 = 0. in
  let params = Params.create ~c2 ~p:nodes ~st:wire_latency ~so () in
  {
    tasks =
      point_tasks ~seed ~artifact:"assumptions" [ 0.; 32.; 256.; 1024.; 2048. ]
        (fun ~rng w ->
          let replication = Rng.split rng in
          let m = simulate_all_to_all ~fidelity ~rng:replication ~w ~so ~c2 () in
          let model = all_to_all_model params ~w in
          let arrival = Welford.mean (Metrics.arrival_backlog m) in
          let steady = Metrics.avg_request_queue m +. Metrics.avg_reply_queue m in
          [
            [
              Table.Float w;
              Table.Int (Metrics.max_handler_backlog m);
              Table.Float arrival;
              Table.Float steady;
              Table.Float (model.A.qq +. model.A.qy);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Assumption audit (sections 2 and 4): deepest handler backlog ever seen \
           (finite buffers hold ~8 small messages on Alewife) and the queue found by \
           arriving messages vs the steady-state queue Bard equates it with \
           (P=32, So=200, C2=0)"
        ~columns:
          [ "W"; "max backlog"; "queue at arrival (sim)"; "steady-state queue (sim)";
            "Qq+Qy (model)" ];
  }

let network_contention_plan ~fidelity ~seed =
  let so = 200. and c2 = 1. in
  let params = Params.create ~c2 ~p:nodes ~st:0. ~so () in
  let cycles = sim_cycles fidelity in
  let points =
    List.concat_map
      (fun w -> List.map (fun link_time -> (w, link_time)) [ 0.; 20.; 100.; 200. ])
      [ 1000.; 0. ]
  in
  {
    tasks =
      point_tasks ~seed ~artifact:"network" points (fun ~rng (w, link_time) ->
          let topo = Lopc_topology.Topology.create ~nodes ~per_hop:10. ~link_time () in
          let model = Fixed_point.get_exn (Lopc.Torus.solve_status params ~topology:topo ~w) in
          let base =
            Lopc_activemsg.Spec.all_to_all ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
              ~handler:(D.Exponential so) ~wire:(D.Constant 0.) ()
          in
          let spec = { base with Lopc_activemsg.Spec.topology = Some topo } in
          let replication = Rng.split rng in
          let sim =
            Metrics.mean_response
              (Machine.run ~rng:replication ~spec ~cycles ()).Machine.metrics
          in
          [
            [
              Table.Float w;
              Table.Float link_time;
              Table.Float model.Lopc.Torus.r;
              Table.Float sim;
              Table.Float model.Lopc.Torus.r_contention_free;
              Table.Float (100. *. model.Lopc.Torus.penalty);
              Table.Float model.Lopc.Torus.link_utilization;
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Section 2's first simplification: 4x8 torus with contended links vs a \
           contention-free network of equal mean path (per_hop=10, So=200, C2=1). \
           'penalty' is the modeling error of assuming no link contention."
        ~columns:
          [ "W"; "link time"; "torus model R"; "simulator R"; "contention-free R";
            "penalty %"; "link util" ];
  }

(* Short space-free reason tokens for provenance cells. *)
let ctmc_reason = function
  | Lopc_markov.Ctmc.Converged _ -> "converged"
  | Lopc_markov.Ctmc.Not_converged _ -> "not-converged"
  | Lopc_markov.Ctmc.Exhausted { reason } ->
    (match reason with
    | Lopc_robust.Budget.Cancelled -> "cancelled"
    | Lopc_robust.Budget.Fuel_exhausted _ -> "exhausted")
  | Lopc_markov.Ctmc.Too_large _ -> "state-space"

let exact_comparison_plan ~fidelity ~seed =
  let so = 200. and st = 40. in
  let cycles = sim_cycles fidelity * 2 in
  (* P = 5's 246,096 states lump into 2,422 orbits: the first P = 5
     solve in a process explores them and takes about 9 ms, and the
     later ones reuse that labelled orbit graph, price its three rates
     and sweep in about 1.1 ms. The full-fidelity simulator runs
     dominate its rows. Quick rows stay P <= 4, unchanged from the
     seed. *)
  let machine_sizes = match fidelity with Quick -> [ 2; 3; 4 ] | Full -> [ 2; 3; 4; 5 ] in
  let points =
    List.concat_map
      (fun p -> List.map (fun w -> (p, w)) [ 1.; 200.; 1000. ])
      machine_sizes
  in
  {
    tasks =
      point_tasks ~seed ~artifact:"exact" points (fun ~rng (p, w) ->
          let exact =
            match Lopc_markov.Exact_machine.all_to_all_status ~p ~w ~so ~st () with
            | Some exact, _ -> exact
            | None, status ->
              invalid_arg (Printf.sprintf "exact: P = %d: %s" p (ctmc_reason status))
          in
          let spec =
            Lopc_activemsg.Spec.all_to_all ~nodes:p ~work:(D.Exponential w)
              ~handler:(D.Exponential so) ~wire:(D.Exponential st) ()
          in
          let replication = Rng.split rng in
          let sim =
            Metrics.mean_response
              (Machine.run ~rng:replication ~spec ~cycles ()).Machine.metrics
          in
          let params = Params.create ~c2:1. ~p ~st ~so () in
          let model = (all_to_all_model params ~w).A.r in
          let exact_r = exact.Lopc_markov.Exact_machine.cycle_time in
          [
            [
              Table.Int p;
              Table.Float w;
              Table.Int exact.Lopc_markov.Exact_machine.states;
              Table.Float exact_r;
              Table.Float sim;
              Table.Float (100. *. (sim -. exact_r) /. exact_r);
              Table.Float model;
              Table.Float (100. *. (model -. exact_r) /. exact_r);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Exact CTMC vs simulator vs LoPC on small machines (exponential W/So/St, \
           So=200, St=40): the simulator column checks the simulator, the model \
           column is LoPC's true approximation error, free of sampling noise"
        ~columns:
          [ "P"; "W"; "states"; "exact R"; "simulator R"; "sim err %"; "LoPC R";
            "LoPC err %" ];
  }

let fixed_point_reason = function
  | Lopc_numerics.Fixed_point.Converged _ -> "converged"
  | Lopc_numerics.Fixed_point.Saturated _ -> "saturated"
  | Lopc_numerics.Fixed_point.Diverged _ -> "diverged"
  | Lopc_numerics.Fixed_point.Exhausted { reason; _ } ->
    (match reason with
    | Lopc_robust.Budget.Cancelled -> "cancelled"
    | Lopc_robust.Budget.Fuel_exhausted _ -> "exhausted")

(* Degradation cascade demo artifact: the same cycle time asked of three
   tiers — exact CTMC, the approximate LoPC model, the contention-free
   bound — each under a deterministic fuel budget, falling back on
   failure instead of failing the row. Budgets are fuel-based and created
   per point, so the table (including every provenance cell) is
   byte-identical at any [--jobs]. A provenance column names each row's
   source and a trail column lists the stages that fell through and why
   (their reason tokens below). The sweep is built to exercise each
   path in CI: small machines solve exactly, [p = 4] deterministically
   overflows the capped state space and degrades to the model, and one
   adversarial point starves the model stage too, landing on the bound. *)
let degradation_cascade_plan () =
  let so = 200. and st = 40. in
  (* Below p = 4's ~9k reachable states, above p = 3's ~400: the cap is
     what makes the [state-space] degradation fire deterministically. *)
  let max_states = 2_000 in
  (* Each point carries the model stage's fuel: ample everywhere except
     the last (p = 4) point, which is deliberately starved — two residual
     evaluations are never enough for Brent — so the cascade must fall
     through to the bound, exercising the [exhausted] path in CI. *)
  let model_fuel = 20_000 in
  let points =
    List.concat_map
      (fun p -> List.map (fun w -> (p, w, model_fuel)) [ 200.; 1000. ])
      [ 2; 3 ]
    @ [ (4, 200., model_fuel); (4, 1000., 2) ]
  in
  {
    tasks =
      pure_tasks points (fun (p, w, model_fuel) ->
          let params = Params.create ~c2:1. ~p ~st ~so () in
          let exact () =
            let budget = Lopc_robust.Budget.create ~fuel:400_000 () in
            match
              Lopc_markov.Exact_machine.all_to_all_status ~budget ~max_states ~p ~w
                ~so ~st ()
            with
            | Some r, _ -> Ok r.Lopc_markov.Exact_machine.cycle_time
            | None, status -> Error (ctmc_reason status)
          in
          let model () =
            let budget = Lopc_robust.Budget.create ~fuel:model_fuel () in
            match A.solve_status ~budget params ~w with
            | Some s, _ -> Ok s.A.r
            | None, status -> Error (fixed_point_reason status)
          in
          let bound () = Ok (A.lower_bound params ~w) in
          let outcome =
            Lopc_robust.Cascade.run
              [
                Lopc_robust.Cascade.attempt "exact" exact;
                Lopc_robust.Cascade.attempt "amva" model;
                Lopc_robust.Cascade.attempt "bound" bound;
              ]
          in
          let r = match outcome.Lopc_robust.Cascade.value with
            | Some r -> r
            | None -> Float.nan
          in
          let trail =
            match outcome.Lopc_robust.Cascade.trail with
            | [] -> "-"
            | trail ->
              String.concat ","
                (List.map (fun (stage, reason) -> stage ^ "=" ^ reason) trail)
          in
          [
            [
              Table.Int p;
              Table.Float w;
              Table.Float r;
              Table.Text outcome.Lopc_robust.Cascade.provenance;
              Table.Text trail;
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Graceful degradation: cycle time from the best tier whose budget \
           allows it (exact CTMC, capped at 2k states -> LoPC model -> \
           contention-free bound). 'source' is the provenance of each row; \
           'trail' the stages that fell through and why. So=200, St=40, C2=1."
        ~columns:[ "P"; "W"; "R"; "source"; "trail" ];
  }

let fault_sweep_plan ?trace_dir ~fidelity ~seed =
  let p = 16 and w = 1000. and so = 200. and c2 = 1. in
  let st = wire_latency in
  let timeout = 20_000. and max_tries = 10 in
  let spike_mean = 10. *. st in
  let params = Params.create ~c2 ~p ~st ~so () in
  (* (drop, duplicate, delay_epsilon) scenarios: a clean baseline, a loss
     ladder through the NOW regime, then duplication and delay spikes
     stacked on 2% loss. *)
  let scenarios =
    [
      (0., 0., 0.); (0.01, 0., 0.); (0.02, 0., 0.); (0.05, 0., 0.);
      (0.02, 0.05, 0.); (0.02, 0., 0.1);
    ]
  in
  {
    tasks =
      point_tasks ~seed ~artifact:"fault" scenarios
        (fun ~rng (drop, duplicate, delay_epsilon) ->
          let model =
            Fixed_point.get_exn
              (Lopc.Fault_model.solve_status
                 (Lopc.Fault_model.config ~drop ~duplicate ~delay_epsilon ~spike_mean
                    ~max_tries ~timeout ())
                 params ~w)
          in
          let fault =
            Lopc_activemsg.Fault.create ~drop ~duplicate ~delay_epsilon
              ~delay_spike:(D.Exponential spike_mean) ~max_tries ~timeout ()
          in
          let spec =
            Pattern.to_spec ~fault ~nodes:p ~work:(D.of_mean_scv ~mean:w ~scv:1.)
              ~handler:(D.of_mean_scv ~mean:so ~scv:c2) ~wire:(D.Constant st)
              Pattern.All_to_all
          in
          let m =
            with_trace ~trace_dir ~artifact:"fault"
              ~label:
                (Printf.sprintf "d%g-u%g-e%g" drop duplicate delay_epsilon)
              ~nodes:p
              (fun obs ->
                let replication = Rng.split rng in
                (Machine.run ~rng:replication ~spec
                   ~cycles:(sim_cycles fidelity / 2) ?obs ())
                  .Machine.metrics)
          in
          let sim = Metrics.mean_response m in
          let finished = m.Metrics.cycles + m.Metrics.failed_cycles in
          [
            [
              Table.Float drop;
              Table.Float duplicate;
              Table.Float delay_epsilon;
              Table.Float model.Lopc.Fault_model.r;
              Table.Float sim;
              Table.Float (100. *. (model.Lopc.Fault_model.r -. sim) /. sim);
              Table.Float model.Lopc.Fault_model.tries;
              Table.Float (Metrics.mean_tries m);
              Table.Float (Float.of_int m.Metrics.retransmits /. Float.of_int finished);
              Table.Float (Metrics.goodput m /. Metrics.offered_load m);
            ];
          ]);
    assemble =
      Table.of_row_groups
        ~caption:
          "Fault sweep: faulty all-to-all cycle time, analytical fault model vs \
           simulator (P=16, W=1000, So=200, C2=1, St=40, timeout=20000, B=10; \
           spike = Exp(10 St))"
        ~columns:
          [
            "drop"; "dup"; "eps"; "model R"; "sim R"; "err %"; "model tries";
            "sim tries"; "retrans/cycle"; "goodput/offered";
          ];
  }

(* --- public API ----------------------------------------------------------- *)

let plans ?(fidelity = Full) ?(seed = 42) ?trace_dir () =
  [
    ("table3.1", table3_1_plan ());
    ("fig5.1", fig5_1_plan ());
    ("fig5.2", fig5_2_plan ?trace_dir ~fidelity ~seed);
    ("fig5.3", fig5_3_plan ~fidelity ~seed);
    ("table5.3", table5_3_plan ~fidelity ~seed);
    ("fig6.2", fig6_2_plan ?trace_dir ~fidelity ~seed);
    ("ablate.arrival", ablation_arrival_theorem_plan ());
    ("ablate.priority", ablation_priority_plan ());
    ("ablate.scv", ablation_scv_correction_plan ~fidelity ~seed);
    ("ablate.solvers", ablation_solvers_plan ());
    ("shared-memory", shared_memory_comparison_plan ~fidelity ~seed);
    ("windowed", windowed_speedup_plan ~fidelity ~seed);
    ("notification", notification_modes_plan ~fidelity ~seed);
    ("ablate.multiserver", ablation_multiserver_plan ());
    ("gap", gap_study_plan ~fidelity ~seed);
    ("assumptions", assumptions_audit_plan ~fidelity ~seed);
    ("network", network_contention_plan ~fidelity ~seed);
    ("exact", exact_comparison_plan ~fidelity ~seed);
    ("cascade", degradation_cascade_plan ());
    ("fault", fault_sweep_plan ?trace_dir ~fidelity ~seed);
  ]
