(* The six benchmark workloads. Each builds its inputs from the seed and
   returns an [instance]: one op, the amount of work an op does, and the
   per-layer probes of a traced run. Every span wraps a call into a
   library's public interface; nothing here reaches inside a layer. *)

open Perfbench_lib
module A = Lopc.All_to_all
module CS = Lopc.Client_server
module G = Lopc.General
module FM = Lopc.Fault_model
module Params = Lopc.Params
module Fixed_point = Lopc_numerics.Fixed_point
module D = Lopc_dist.Distribution
module Rng = Lopc_prng.Rng
module Engine = Lopc_eventsim.Engine
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Fault = Lopc_activemsg.Fault
module Pattern = Lopc_workloads.Pattern
module Exact_machine = Lopc_markov.Exact_machine
module Ctmc = Lopc_markov.Ctmc
module Budget = Lopc_robust.Budget
module Recorder = Lopc_obs.Recorder
module Sim_probe = Lopc_obs.Sim_probe
module Experiments = Lopc_repro.Experiments
module Parallel = Lopc_repro.Parallel
module Table = Lopc_repro.Table
module Driver = Lopc_analysis.Driver
module Typed_driver = Lopc_analysis.Typed_driver
module Cmt_loader = Lopc_analysis.Cmt_loader
module Callgraph = Lopc_analysis.Callgraph
module Effects = Lopc_analysis.Effects
module Absint = Lopc_analysis.Absint

type instance = {
  work : unit -> float;  (** work units one op performs *)
  op : int -> unit -> bool;
      (** [op i] runs op [i] (the harness times this call) and returns
          the check of its outputs (run untimed) *)
  layers : (int * float) list -> (string * float) list;
      (** per-layer metrics of a traced run, given the (op, seconds) of
          its traced ops; may run extra probe calls *)
}

type t = { name : string; setup : seed:int -> Trace.t -> instance }

(* --- shared helpers ------------------------------------------------------- *)

let time f =
  let t0 = Trace.now () in
  let v = f () in
  (v, Trace.now () -. t0)

(* Median seconds of three calls. *)
let timed_median f = Stats.median (List.init 3 (fun _ -> snd (time f)))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)

let within ~tol x target = Float.abs (x -. target) <= tol *. Float.abs target

(* A value in cell [j] of [n] equal log-width cells of [lo, hi], jittered
   within the cell by the seed. Inputs index cells in a fixed order (or a
   fixed permutation for a second parameter), so every seed covers the
   ranges the same way and per-op costs mix alike from seed to seed. *)
let log_cell rng ~n ~lo ~hi j =
  lo *. ((hi /. lo) ** ((Float.of_int j +. Rng.float rng) /. Float.of_int n))

let cell rng ~n ~lo ~hi j =
  lo +. ((hi -. lo) *. (Float.of_int j +. Rng.float rng) /. Float.of_int n)

let seeds rng n = Array.init n (fun _ -> Rng.int_below rng 0x3FFF_FFFF)

(* --- sim-uniform, sim-faulty: Machine.run --------------------------------- *)

type sim_input = { spec : Lopc_activemsg.Spec.t; sim_seed : int; model_r : float }

(* Machine.run's default warm-up, counted into events per cycle. *)
let warmup_cycles cycles = max 1000 (cycles / 10)

(* Engine.schedule/step at a fixed pending depth, [events] steps; every
   [1 / timers_per_event] steps also arms a timer and cancels the previous
   one, as the fault layer does per request send. Nanoseconds per step. *)
let replay_ns ~depth ~events ~timers_per_event =
  let rng = Rng.create 7 in
  let delays = Array.init 4096 (fun _ -> Rng.exponential rng 1.) in
  let e = Engine.create () in
  let k = ref 0 in
  let rec fire e =
    incr k;
    ignore (Engine.schedule e ~delay:delays.(!k land 4095) fire)
  in
  for _ = 1 to max 1 depth do
    fire e
  done;
  let timer = ref None and owed = ref 0. in
  let (), dt =
    time (fun () ->
        for _ = 1 to events do
          ignore (Engine.step e);
          owed := !owed +. timers_per_event;
          if !owed >= 1. then begin
            owed := !owed -. 1.;
            Option.iter Engine.cancel !timer;
            timer := Some (Engine.schedule e ~delay:delays.(!k land 4095) ignore)
          end
        done)
  in
  dt *. 1e9 /. Float.of_int events

let sample_ns dists =
  let rng = Rng.create 11 and n = 1_000_000 in
  let acc = ref 0. in
  let (), dt =
    time (fun () ->
        for i = 0 to n - 1 do
          acc := !acc +. D.sample dists.(i mod Array.length dists) rng
        done)
  in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9 /. Float.of_int n

let draw_ns () =
  let rng = Rng.create 13 and n = 1_000_000 in
  let acc = ref 0. in
  let (), dt =
    time (fun () ->
        for _ = 1 to n do
          acc := !acc +. Rng.float rng
        done)
  in
  ignore (Sys.opaque_identity !acc);
  dt *. 1e9 /. Float.of_int n

(* Engine samples (pending events, every 256 events) of one short run. *)
let pending_samples ~nodes input =
  let recorder = Recorder.create () in
  let obs = Sim_probe.create ~recorder ~nodes () in
  ignore (Machine.run ~seed:input.sim_seed ~spec:input.spec ~cycles:4000 ~obs ());
  List.filter_map
    (fun (e : Recorder.event) ->
      match (e.kind, e.name, e.args) with
      | Recorder.Counter, "heap", [ ("value", Recorder.Num v) ] -> Some v
      | _ -> None)
    (Recorder.events recorder)

let sim_instance tr ~nodes ~cycles ~faulty (inputs : sim_input array) =
  let k = Array.length inputs in
  let events = Array.make k 0 in
  let op i =
    let j = i mod k in
    let input = inputs.(j) in
    let r =
      Trace.span tr "activemsg.Machine.run" (fun () ->
          Machine.run ~seed:input.sim_seed ~spec:input.spec ~cycles ())
    in
    fun () ->
      events.(j) <- r.Machine.events;
      let m = r.Machine.metrics in
      let x = Metrics.throughput m and resp = Metrics.mean_response m in
      r.Machine.interrupted = None
      && within ~tol:0.02 (x *. resp /. Float.of_int nodes) 1.
      && within ~tol:0.10 resp input.model_r
  in
  let layers traced =
    (* Counts come from a fixed set of inputs so they repeat exactly. *)
    let probes =
      Array.init (min 4 k) (fun j ->
          let input = inputs.(j) in
          Trace.span tr "activemsg.Machine.run" (fun () ->
              Machine.run ~seed:input.sim_seed ~spec:input.spec ~cycles ()))
    in
    let sum f = Array.fold_left (fun acc r -> acc +. f r) 0. probes in
    let metric f = sum (fun r -> f r.Machine.metrics) in
    let n = Float.of_int (Array.length probes) in
    let events_per_cycle =
      sum (fun r -> Float.of_int r.Machine.events)
      /. (n *. Float.of_int (cycles + warmup_cycles cycles))
    in
    (* Without a fault layer every cycle is one try. *)
    let tries = if faulty then metric Metrics.mean_tries /. n else 1. in
    let sends_per_event =
      if faulty then
        metric (fun m -> Float.of_int m.Metrics.request_sends)
        /. sum (fun r -> Float.of_int r.Machine.events)
      else 0.
    in
    let pending =
      Trace.span tr "eventsim.probe.pending" (fun () -> pending_samples ~nodes inputs.(0))
    in
    let pending_mean = mean pending in
    let replay =
      Trace.span tr "eventsim.Engine.replay" (fun () ->
          Stats.median
            (List.init 3 (fun _ ->
                 replay_ns ~depth:(Float.to_int (Float.round pending_mean))
                   ~events:probes.(0).Machine.events
                   ~timers_per_event:sends_per_event)))
    in
    let spec = inputs.(0).spec in
    let thread = Option.get spec.Lopc_activemsg.Spec.threads.(0) in
    let sample =
      Trace.span tr "dist.Distribution.sample" (fun () ->
          Stats.median
            (List.init 3 (fun _ ->
                 sample_ns
                   Lopc_activemsg.Spec.
                     [| thread.work; spec.handler; spec.reply_handler; spec.wire; spec.wire |])))
    in
    let draw =
      Trace.span tr "prng.Rng.float" (fun () -> Stats.median (List.init 3 (fun _ -> draw_ns ())))
    in
    (* Computed: one work sample per cycle, then a wire and a handler
       sample per request and per reply of every try. *)
    let samples_per_cycle = 1. +. (4. *. tries) in
    let ns_per_event =
      1e9
      *. Stats.median (List.map (fun (i, s) -> s /. Float.of_int events.(i mod k)) traced)
    in
    [
      ("eventsim.pending_mean", pending_mean);
      ("eventsim.pending_max", List.fold_left Float.max 0. pending);
      ("eventsim.replay_ns_per_event", replay);
      ("activemsg.events_per_cycle", events_per_cycle);
      ("activemsg.ns_per_event", ns_per_event);
      ( "activemsg.self_ns_per_event",
        ns_per_event -. replay -. (samples_per_cycle /. events_per_cycle *. sample) );
      ("dist.ns_per_sample", sample);
      ("dist.samples_per_cycle", samples_per_cycle);
      ("prng.ns_per_draw", draw);
    ]
    @
    if not faulty then []
    else
      [
        ("activemsg.tries_per_cycle", tries);
        ( "activemsg.retransmits_per_kcycle",
          1000.
          *. metric (fun m -> Float.of_int m.Metrics.retransmits)
          /. metric (fun m -> Float.of_int (m.Metrics.cycles + m.Metrics.failed_cycles)) );
        ( "activemsg.goodput_ratio",
          metric (fun m -> Metrics.goodput m /. Metrics.offered_load m) /. n );
      ]
  in
  { work = (fun () -> Float.of_int cycles); op; layers }

(* The Fig 5-2 machine: P=32, St=40, constant So=200 (C²=0), exponential
   W log-uniform over the figure's range [2, 2048]. *)
let sim_uniform ~seed tr =
  let rng = Rng.create seed in
  let nodes = 32 and k = 64 in
  let params = Params.create ~c2:0. ~p:nodes ~st:40. ~so:200. () in
  let ws = Array.init k (log_cell rng ~n:k ~lo:2. ~hi:2048.) in
  let sim_seeds = seeds rng k in
  let inputs =
    Array.mapi
      (fun j w ->
        {
          spec =
            Pattern.to_spec ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
              ~handler:(D.of_mean_scv ~mean:200. ~scv:0.) ~wire:(D.Constant 40.)
              Pattern.All_to_all;
          sim_seed = sim_seeds.(j);
          model_r = (A.solve params ~w).A.r;
        })
      ws
  in
  sim_instance tr ~nodes ~cycles:20_000 ~faulty:false inputs

(* The `fault` artifact's machine at 2% drop, 1% duplication and 1%
   delay spikes: P=16, exponential W=1000 and So=200, St=40, timeout
   20000, 10 tries. *)
let sim_faulty ~seed tr =
  let rng = Rng.create seed in
  let nodes = 16 and w = 1000. and so = 200. and st = 40. in
  let drop = 0.02 and duplicate = 0.01 and delay_epsilon = 0.01 in
  let timeout = 20_000. and max_tries = 10 and spike_mean = 10. *. st in
  let fault =
    Fault.create ~drop ~duplicate ~delay_epsilon ~delay_spike:(D.Exponential spike_mean)
      ~max_tries ~timeout ()
  in
  let spec =
    Pattern.to_spec ~fault ~nodes ~work:(D.of_mean_scv ~mean:w ~scv:1.)
      ~handler:(D.of_mean_scv ~mean:so ~scv:1.) ~wire:(D.Constant st) Pattern.All_to_all
  in
  let model_r =
    (FM.solve
       (FM.config ~drop ~duplicate ~delay_epsilon ~spike_mean ~max_tries ~timeout
          ~backoff:(fun try_ -> Fault.timeout_multiplier fault ~try_)
          ())
       (Params.create ~c2:1. ~p:nodes ~st ~so ())
       ~w)
      .FM.r
  in
  let inputs = Array.map (fun sim_seed -> { spec; sim_seed; model_r }) (seeds rng 64) in
  sim_instance tr ~nodes ~cycles:10_000 ~faulty:true inputs

(* --- exact: Exact_machine.all_to_all_status ------------------------------- *)

(* P=5 (246,096 states) with exponential W, So and St drawn per op. *)
let exact ~seed tr =
  let rng = Rng.create seed in
  let p = 5 and k = 8 in
  let ws = Array.init k (log_cell rng ~n:k ~lo:100. ~hi:2000.) in
  let sos = Array.init k (fun j -> log_cell rng ~n:k ~lo:50. ~hi:400. (3 * j mod k)) in
  let sts = Array.init k (fun j -> log_cell rng ~n:k ~lo:10. ~hi:100. (5 * j mod k)) in
  let states = ref 0 in
  let solve ?budget j =
    Exact_machine.all_to_all_status ?budget ~p ~w:ws.(j) ~so:sos.(j) ~st:sts.(j) ()
  in
  let op i =
    let j = i mod k in
    let res = Trace.span tr "markov.Exact_machine.all_to_all_status" (fun () -> solve j) in
    fun () ->
      match res with
      | Some r, Ctmc.Converged _ ->
        let w = ws.(j) and so = sos.(j) and st = sts.(j) in
        let lopc = (A.solve (Params.create ~c2:1. ~p ~st ~so ()) ~w).A.r in
        states := r.Exact_machine.states;
        Float.abs ((r.throughput *. r.cycle_time) -. 1.) <= 1e-9
        && r.cycle_time >= w +. (2. *. st) +. (2. *. so)
        && within ~tol:1e-6 r.uq r.uy
        && within ~tol:0.10 lopc r.cycle_time
      | _ -> false
  in
  let layers _traced =
    (* The budget is consulted once per explored state and once per
       sweep, so fuel spent minus states counts the sweeps, and fuel equal
       to the state count stops the solve just before its first sweep. *)
    let fuel = 1 lsl 40 in
    let budget = Budget.create ~fuel () in
    let res, full =
      time (fun () -> Trace.span tr "markov.probe.solve" (fun () -> solve ~budget 0))
    in
    let n = match res with Some r, _ -> r.Exact_machine.states | None, _ -> !states in
    let sweeps = fuel - Option.value (Budget.remaining budget) ~default:fuel - n in
    let _, explore =
      time (fun () ->
          Trace.span tr "markov.probe.explore" (fun () ->
              solve ~budget:(Budget.create ~fuel:n ()) 0))
    in
    let sweep = full -. explore and nf = Float.of_int n in
    [
      ("markov.states", nf);
      ("markov.sweeps", Float.of_int sweeps);
      ("markov.explore_s", explore);
      ("markov.sweep_s", sweep);
      ("markov.ns_per_state", full *. 1e9 /. nf);
      ("markov.ns_per_state_sweep", sweep *. 1e9 /. (nf *. Float.of_int (max 1 sweeps)));
      ("markov.explore_share", explore /. full);
    ]
  in
  { work = (fun () -> Float.of_int !states); op; layers }

(* --- model-sweep: All_to_all / Client_server / General solves ------------- *)

type model_kind =
  | Homogeneous of A.execution
  | Work_pile
  | Appendix_a of Pattern.t

type model_config = { params : Params.t; w : float; kind : model_kind }

(* 200 configs across the four `lopc_cli predict` patterns, P in [8, 128].
   Hotspot fractions stay below half the hot node's handler capacity:
   a saturated General solve only reports so after 200,000 iterations,
   which would swamp the pass. *)
let model_configs rng =
  let n = 200 and cells = 50 in
  Array.init n (fun i ->
      (* Config i has pattern i mod 4; each pattern sweeps every cell of P,
         and W, So, St and the hotspot fraction by fixed permutations. *)
      let r = i / 4 in
      let p = Float.to_int (log_cell rng ~n:cells ~lo:8. ~hi:129. r) in
      let w = log_cell rng ~n:cells ~lo:1. ~hi:4096. (17 * r mod cells) in
      let so = log_cell rng ~n:cells ~lo:50. ~hi:500. (31 * r mod cells) in
      let st = cell rng ~n:cells ~lo:0. ~hi:100. (13 * r mod cells) in
      let c2 = [| 0.; 0.5; 1.; 2. |].(r mod 4) in
      let params = Params.create ~c2 ~p ~st ~so () in
      let kind =
        match i mod 4 with
        | 0 -> Homogeneous [| A.Interrupt; A.Polling; A.Protocol_processor |].(r mod 3)
        | 1 -> Work_pile
        | 2 ->
          let cap = 0.5 *. (w +. (2. *. st) +. (2. *. so)) /. (Float.of_int (p - 1) *. so) in
          let fraction = cell rng ~n:cells ~lo:0. ~hi:(Float.min 0.5 cap) (7 * r mod cells) in
          Appendix_a (Pattern.Hotspot { hot = 0; fraction })
        | _ -> Appendix_a (Pattern.Multi_hop { hops = 2 + (r mod 2) })
      in
      { params; w; kind })

(* How a solve ended. Saturated and Diverged are correct answers for a
   model past its stable region. *)
type model_outcome = Iterated of int | Closed_form | Unstable

(* Solve one config the way `lopc_cli predict` does; the flag checks the
   answer. *)
let solve_config tr c =
  let tiny = 1e-9 in
  let p = c.params.Params.p in
  match c.kind with
  | Homogeneous execution -> (
    match
      Trace.span tr "core.All_to_all.solve_status" (fun () ->
          A.solve_status ~execution c.params ~w:c.w)
    with
    | Some s, Fixed_point.Converged { iters } ->
      let bounded =
        execution <> A.Interrupt
        || (s.A.r >= A.lower_bound c.params ~w:c.w *. (1. -. tiny)
           && s.A.r <= A.upper_bound c.params ~w:c.w *. (1. +. tiny))
      in
      (Iterated iters, bounded && s.A.uq <= 1. +. tiny && s.A.uy <= 1. +. tiny)
    | None, (Fixed_point.Saturated _ | Fixed_point.Diverged _) -> (Unstable, true)
    | _ -> (Unstable, false))
  | Work_pile ->
    let s =
      Trace.span tr "core.Client_server.throughput" (fun () ->
          let servers = CS.optimal_servers c.params ~w:c.w in
          ignore (CS.optimal_servers_real c.params ~w:c.w);
          CS.throughput c.params ~w:c.w ~servers)
    in
    let bound =
      Lopc.Logp.workpile_bound c.params ~w:c.w ~servers:s.CS.servers
        ~clients:(p - s.CS.servers)
    in
    (Closed_form, s.CS.throughput <= bound *. (1. +. tiny) && s.CS.server_util <= 1. +. tiny)
  | Appendix_a pattern -> (
    match
      Trace.span tr "core.General.solve_status" (fun () ->
          G.solve_status (Pattern.to_general c.params ~w:c.w pattern))
    with
    | Some s, Fixed_point.Converged { iters } ->
      ( Iterated iters,
        Array.for_all
          (fun (n : G.node_solution) -> n.G.uq <= 1. +. tiny && n.G.uy <= 1. +. tiny)
          s.G.node_solutions )
    | None, (Fixed_point.Saturated _ | Fixed_point.Diverged _) -> (Unstable, true)
    | _ -> (Unstable, false))

let model_sweep ~seed tr =
  let configs = model_configs (Rng.create seed) in
  let n = Array.length configs in
  let outcomes = Array.make n Unstable in
  (* (config, seconds) of every solve in a traced pass *)
  let solves = ref [] in
  let op _ =
    let results =
      Array.mapi
        (fun c config ->
          if Trace.enabled tr then begin
            let r, dt = time (fun () -> solve_config tr config) in
            solves := (c, dt) :: !solves;
            r
          end
          else solve_config tr config)
        configs
    in
    fun () ->
      Array.iteri (fun c (outcome, _) -> outcomes.(c) <- outcome) results;
      Array.for_all snd results
  in
  let layers _traced =
    let select pred = List.filter (fun (c, _) -> pred configs.(c).kind) !solves in
    let homogeneous = function Homogeneous _ -> true | _ -> false in
    let work_pile = function Work_pile -> true | _ -> false in
    let appendix_a = function Appendix_a _ -> true | _ -> false in
    let med scale pred =
      match select pred with [] -> 0. | l -> scale *. Stats.median (List.map snd l)
    in
    let iters c = match outcomes.(c) with Iterated it -> Some (Float.of_int it) | _ -> None in
    let mean_iters pred =
      mean
        (List.filter_map
           (fun c -> if pred configs.(c).kind then iters c else None)
           (List.init n Fun.id))
    in
    let per_iter_node2 =
      List.filter_map
        (fun (c, dt) ->
          let p = Float.of_int configs.(c).params.Params.p in
          Option.map (fun it -> dt *. 1e9 /. (it *. p *. p)) (iters c))
        (select appendix_a)
    in
    let nonconverged =
      Array.fold_left (fun acc o -> if o = Unstable then acc + 1 else acc) 0 outcomes
    in
    [
      ("core.all_to_all.us_per_solve", med 1e6 homogeneous);
      ("core.all_to_all.evals_per_solve", mean_iters homogeneous);
      ("core.general.ms_per_solve", med 1e3 appendix_a);
      ("core.general.iters_per_solve", mean_iters appendix_a);
      ( "core.general.ns_per_iter_per_node2",
        if per_iter_node2 = [] then 0. else Stats.median per_iter_node2 );
      ("core.client_server.us_per_solve", med 1e6 work_pile);
      ("core.nonconverged_ratio", Float.of_int nonconverged /. Float.of_int n);
    ]
  in
  { work = (fun () -> Float.of_int n); op; layers }

(* --- lint-tree: what CI lints --------------------------------------------- *)

let lint_roots () = List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples"; "test" ]

let count_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go n = match In_channel.input_line ic with Some _ -> go (n + 1) | None -> n in
      go 0)

(* The tree is the input; the seed has nothing to vary. Ops run the
   syntactic stage at jobs 1 and the typed stage (absint included), as
   `lopc_lint --typed` does; setup also runs the syntactic stage on a
   2-domain pool, whose findings every op must match. *)
let lint_tree ~seed:_ tr =
  let roots = lint_roots () in
  let files = Driver.source_files roots in
  let lines = List.fold_left (fun acc f -> acc + count_lines f) 0 files in
  let jobs2 () =
    Parallel.with_pool ~jobs:2 (fun pool -> Driver.lint_paths ~map_tasks:(Parallel.run pool) roots)
  in
  let syntactic2 = jobs2 () in
  let reference = ref None in
  let op _ =
    let syntactic =
      Trace.span tr "analysis.Driver.lint_paths" (fun () -> Driver.lint_paths roots)
    in
    let typed =
      Trace.span tr "analysis.Typed_driver.analyze_paths" (fun () ->
          Typed_driver.analyze_paths roots)
    in
    fun () ->
      let all = List.sort_uniq Lopc_analysis.Finding.compare (syntactic @ typed) in
      if !reference = None then reference := Some all;
      !reference = Some all && syntactic = syntactic2
  in
  let layers _traced =
    (* Median milliseconds of three calls, each recorded as a span. *)
    let ms span f = 1e3 *. timed_median (fun () -> ignore (Trace.span tr span f)) in
    (* Where dune writes the typed trees, as analyze_paths finds them. *)
    let built =
      List.filter Sys.file_exists (List.map (Filename.concat "_build/default") roots)
    in
    let units = Cmt_loader.load built in
    let graph = Callgraph.build units in
    let analyze_units =
      ms "analysis.Typed_driver.analyze_units" (fun () -> Typed_driver.analyze_units units)
    in
    let callgraph = ms "analysis.Callgraph.build" (fun () -> Callgraph.build units) in
    let effects = ms "analysis.Effects.analyze" (fun () -> Effects.analyze graph) in
    let absint = ms "analysis.Absint.analyze" (fun () -> Absint.analyze graph) in
    [
      ("analysis.files", Float.of_int (List.length files));
      ("analysis.lines", Float.of_int lines);
      ("analysis.cmt_units", Float.of_int (List.length units));
      ("analysis.callgraph_defs", Float.of_int (List.length graph.Callgraph.defs));
      ( "analysis.syntactic_jobs1_ms",
        1e3 *. Stats.median (Trace.durations tr "analysis.Driver.lint_paths") );
      ("analysis.syntactic_jobs2_ms", ms "analysis.Driver.lint_paths (jobs 2)" jobs2);
      ("analysis.cmt_load_ms", ms "analysis.Cmt_loader.load" (fun () -> Cmt_loader.load built));
      ("analysis.callgraph_ms", callgraph);
      ("analysis.effects_ms", effects);
      ("analysis.absint_ms", absint);
      (* Computed: analyze_units builds its own call graph and effect
         summaries and runs absint through the numeric rules. *)
      ("analysis.typed_rules_ms", analyze_units -. callgraph -. effects -. absint);
    ]
  in
  { work = (fun () -> Float.of_int lines); op; layers }

(* --- reproduce-quick: every artifact on a 2-domain pool ------------------- *)

let artifacts () = List.map fst (Experiments.plans ~fidelity:Experiments.Quick ())

(* Each op builds its own pool, as one `bench/main.exe --jobs 2` run
   does; between ops the process has a single domain. *)
let reproduce_quick ~seed tr =
  let jobs = 2 in
  let artifacts = List.length (artifacts ()) in
  let reference = ref None in
  (* (work, span, wall) seconds of each traced pass *)
  let passes = ref [] in
  (* Each task closure wrapped to time itself on whichever domain runs it. *)
  let timed_plan (plan : Experiments.plan) =
    let slots = Array.make (Array.length plan.tasks) (0., 0., 0) in
    let tasks =
      Array.mapi
        (fun k task () ->
          let start = Trace.now () in
          let rows = task () in
          slots.(k) <- (start, Trace.now (), (Domain.self () :> int));
          rows)
        plan.tasks
    in
    ({ plan with tasks }, slots)
  in
  let run_artifact pool (name, plan) =
    let span = "repro." ^ name in
    if not (Trace.enabled tr) then (name, Experiments.run_plan ~pool plan, [||])
    else
      Trace.span tr span (fun () ->
          let plan, slots = timed_plan plan in
          let table = Experiments.run_plan ~pool plan in
          Array.iter
            (fun (start, stop, tid) -> Trace.record tr ~name:(span ^ ".task") ~start ~stop ~tid)
            slots;
          (name, table, slots))
  in
  let op _ =
    let tables, wall =
      time (fun () ->
          Parallel.with_pool ~jobs (fun pool ->
              List.map (run_artifact pool) (Experiments.plans ~fidelity:Experiments.Quick ~seed ())))
    in
    if Trace.enabled tr then begin
      let tasks = List.concat_map (fun (_, _, slots) -> Array.to_list slots) tables in
      let seconds = List.map (fun (start, stop, _) -> stop -. start) tasks in
      let work = List.fold_left ( +. ) 0. seconds in
      passes := (work, List.fold_left Float.max 0. seconds, wall) :: !passes
    end;
    fun () ->
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat "" (List.map (fun (name, t, _) -> name ^ Table.to_csv t) tables)))
      in
      if !reference = None then begin
        Printf.eprintf "reproduce-quick: %d-table digest %s\n%!" (List.length tables) digest;
        reference := Some digest
      end;
      !reference = Some digest && List.length tables = artifacts
  in
  let layers _traced =
    let plans = Experiments.plans ~fidelity:Experiments.Quick () in
    let passes = !passes in
    let med f = Stats.median (List.map f passes) in
    [
      ( "repro.tasks",
        Float.of_int (List.fold_left (fun acc (_, p) -> acc + Experiments.task_count p) 0 plans) );
      ("repro.work_s", med (fun (work, _, _) -> work));
      ("repro.span_s", med (fun (_, span, _) -> span));
      ( "repro.parallel_efficiency",
        med (fun (work, _, wall) -> work /. (Float.of_int jobs *. wall)) );
    ]
    @ List.map
        (fun (name, _) ->
          ( Printf.sprintf "repro.artifact.%s_s" name,
            Stats.median (Trace.durations tr ("repro." ^ name)) ))
        plans
  in
  { work = (fun () -> Float.of_int artifacts); op; layers }

let all =
  [
    { name = "sim-uniform"; setup = sim_uniform };
    { name = "sim-faulty"; setup = sim_faulty };
    { name = "exact"; setup = exact };
    { name = "model-sweep"; setup = model_sweep };
    { name = "lint-tree"; setup = lint_tree };
    { name = "reproduce-quick"; setup = reproduce_quick };
  ]
