(* The supervised runtime: budgets and cancellation observed by every
   solver and the simulator, and the degradation cascade staying
   byte-identical across domain counts. Budgets here are fuel and
   pre-flipped tokens, never timers, so every failing case replays
   exactly. *)

module Budget = Lopc_robust.Budget
module Cancel = Lopc_robust.Cancel
module Cascade = Lopc_robust.Cascade
module Parallel = Lopc_repro.Parallel
module Experiments = Lopc_repro.Experiments
module Table = Lopc_repro.Table
module FP = Lopc_numerics.Fixed_point
module A = Lopc.All_to_all
module G = Lopc.General
module FM = Lopc.Fault_model
module Params = Lopc.Params
module Amva = Lopc_mva.Amva
module Station = Lopc_mva.Station
module Ctmc = Lopc_markov.Ctmc
module Exact = Lopc_markov.Exact_machine
module Machine = Lopc_activemsg.Machine
module Spec = Lopc_activemsg.Spec
module Metrics = Lopc_activemsg.Metrics
module D = Lopc_dist.Distribution

let params = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. ()

(* --- budgets and tokens -------------------------------------------------- *)

let test_budget_fuel () =
  let b = Budget.create ~fuel:3 () in
  Alcotest.(check (option int)) "full tank" (Some 3) (Budget.remaining b);
  for i = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "check %d passes" i) true
      (Budget.check b = None)
  done;
  (match Budget.check b with
  | Some (Budget.Fuel_exhausted { fuel }) ->
    Alcotest.(check int) "original allowance reported" 3 fuel
  | _ -> Alcotest.fail "expected fuel exhaustion");
  Alcotest.(check bool) "exhaustion is sticky" true
    (Budget.check b <> None);
  Alcotest.(check (option int)) "never negative" (Some 0) (Budget.remaining b)

let test_cancel_outranks_fuel () =
  let token = Cancel.create () in
  Alcotest.(check bool) "fresh token" false (Cancel.cancelled token);
  Cancel.cancel token;
  Alcotest.(check bool) "cancelled" true (Cancel.cancelled token);
  Cancel.cancel token;
  Alcotest.(check bool) "cancel is idempotent" true (Cancel.cancelled token);
  (* Cancellation outranks fuel and consumes none. *)
  let b = Budget.create ~fuel:5 ~cancel:token () in
  Alcotest.(check bool) "cancelled before fuel" true
    (Budget.check b = Some Budget.Cancelled);
  Alcotest.(check (option int)) "no fuel consumed" (Some 5) (Budget.remaining b)

(* --- every solver honours its budget ------------------------------------- *)

(* Fixed point 10,000: the bracket search from 0 needs more than ten
   evaluations to reach it. *)
let slow_map x = (0.9999 *. x) +. 1.

let test_fixed_point_budget () =
  let b = Budget.create ~fuel:10 () in
  match FP.solve_above_status ~budget:b ~f:slow_map 0. with
  | _, FP.Exhausted { iters; reason = Budget.Fuel_exhausted _ } ->
    Alcotest.(check int) "one unit of fuel per evaluation" 10 iters
  | _, status -> Alcotest.failf "expected exhaustion, got %s" (FP.status_to_string status)

let test_cancelled_solver_stops_within_one_iteration () =
  let cancel = Cancel.create () in
  let b = Budget.create ~cancel () in
  let calls = ref 0 in
  let f x =
    incr calls;
    if !calls = 5 then Cancel.cancel cancel;
    slow_map x
  in
  match FP.solve_above_status ~budget:b ~f 0. with
  | _, FP.Exhausted { iters; reason = Budget.Cancelled } ->
    Alcotest.(check bool)
      (Printf.sprintf "stopped within one evaluation of the flip (iters = %d)" iters)
      true (iters <= 6)
  | _, status -> Alcotest.failf "expected cancellation, got %s" (FP.status_to_string status)

let test_all_to_all_budget () =
  (match A.solve_status ~budget:(Budget.create ~fuel:2 ()) params ~w:1000. with
  | None, FP.Exhausted { reason = Budget.Fuel_exhausted _; _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion, got %s" (FP.status_to_string status));
  (* A generous budget changes nothing: same evaluation path, same floats. *)
  let unbudgeted =
    match A.solve_status params ~w:1000. with
    | Some s, FP.Converged _ -> s.A.r
    | _ -> Alcotest.fail "reference solve failed"
  in
  match A.solve_status ~budget:(Budget.create ~fuel:1_000_000 ()) params ~w:1000. with
  | Some s, FP.Converged _ ->
    Alcotest.(check (float 0.)) "budgeted = unbudgeted, bit for bit" unbudgeted s.A.r
  | _, status -> Alcotest.failf "expected convergence, got %s" (FP.status_to_string status)

let test_general_budget () =
  match
    G.solve_status ~budget:(Budget.create ~fuel:1 ())
      (Harness.general_all_to_all params ~w:1000.)
  with
  | None, FP.Exhausted { iters; reason = Budget.Fuel_exhausted _ } ->
    Alcotest.(check int) "stopped after one iteration" 1 iters
  | _, status -> Alcotest.failf "expected exhaustion, got %s" (FP.status_to_string status)

let test_amva_budget () =
  let stations =
    [| Station.queueing ~demand:2. (); Station.queueing ~demand:3. () |]
  in
  match
    Amva.solve_status ~budget:(Budget.create ~fuel:1 ()) ~stations ~population:8 ()
  with
  | None, FP.Exhausted { reason = Budget.Fuel_exhausted _; _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion, got %s" (FP.status_to_string status)

let test_fault_model_budget () =
  let c = FM.config ~drop:0.05 ~timeout:5000. () in
  match FM.solve_status ~budget:(Budget.create ~fuel:1 ()) c params ~w:1000. with
  | None, FP.Exhausted { reason = Budget.Fuel_exhausted _; _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion, got %s" (FP.status_to_string status)

(* --- the fuel law ----------------------------------------------------------- *)

(* One budget unit buys one iteration or map evaluation, and nothing else
   spends fuel: if the unbudgeted run converges in N steps, every fuel
   k < N stops it with [Exhausted { iters = k }] and fuel N converges in N
   steps with bit-identical results. [solve] returns the result's floats
   (or [None]) and the status. *)
let fuel_law (solve : Budget.t option -> float array option * FP.status) =
  let same_bits a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  match solve None with
  | Some reference, FP.Converged { iters = n } ->
    for k = 0 to n - 1 do
      match solve (Some (Budget.create ~fuel:k ())) with
      | None, FP.Exhausted { iters; reason = Budget.Fuel_exhausted _ } when iters = k -> ()
      | _, status ->
        QCheck.Test.fail_reportf "fuel %d of %d: %s" k n (FP.status_to_string status)
    done;
    (match solve (Some (Budget.create ~fuel:n ())) with
    | Some result, FP.Converged { iters } when iters = n && same_bits reference result ->
      true
    | _, status ->
      QCheck.Test.fail_reportf "fuel %d: %s, or results differ" n
        (FP.status_to_string status))
  | _, status ->
    (* The law is stated for converging runs; saturated draws are skipped. *)
    QCheck.assume (match status with FP.Converged _ -> true | _ -> false);
    true

let fixed_rand = Harness.fixed_rand

let params_gen =
  QCheck.Gen.(
    let* p = int_range 2 64 in
    let* st = oneof [ return 0.; float_range 0. 200. ] in
    let* so = float_range 1. 500. in
    let* c2 = oneof [ return 0.; return 1.; float_range 0. 2. ] in
    let* w = oneof [ return 0.; float_range 0. 5000. ] in
    return (Params.create ~c2 ~p ~st ~so (), w))

let print_params ((params : Params.t), w) =
  Printf.sprintf "p=%d st=%h so=%h c2=%h w=%h" params.p params.st params.so params.c2 w

(* The bracketed solve and its damped reference: both spend one unit of
   fuel per evaluation of F. *)
type method_ = Brent | Damped

let prop_all_to_all_fuel_law =
  let gen =
    QCheck.Gen.(
      triple params_gen
        (oneofl [ A.Interrupt; A.Polling; A.Protocol_processor ])
        (oneofl [ Brent; Damped ]))
  in
  let print (pw, execution, method_) =
    Printf.sprintf "%s %s %s" (print_params pw)
      (match execution with
      | A.Interrupt -> "interrupt"
      | A.Polling -> "polling"
      | A.Protocol_processor -> "protocol-processor")
      (match method_ with Brent -> "brent" | Damped -> "damped")
  in
  QCheck.Test.make ~name:"fuel law: all-to-all" ~count:60 (QCheck.make ~print gen)
    (fun ((params, w), execution, method_) ->
      fuel_law (fun budget ->
          match method_ with
          | Brent ->
            let s, status = A.solve_status ?budget ~execution params ~w in
            (Option.map (fun s -> [| s.A.r |]) s, status)
          | Damped -> (
            match Harness.damped_all_to_all ?budget ~execution params ~w with
            | r, (FP.Converged _ as status) -> (Some [| r |], status)
            | _, status -> (None, status))))

(* Half the draws sit in the regime where the retry-inflated saturation
   floor lies above the contention-free bound (little work and wire time,
   heavy loss and duplication, short timeouts). *)
let fault_gen =
  QCheck.Gen.(
    let* (params : Params.t), w = params_gen in
    let* floor_regime = bool in
    let* config =
      if floor_regime then
        let* drop = float_range 0.3 0.6 in
        let* duplicate = float_range 0.5 1. in
        let* timeout = float_range 1. 20. in
        let* max_tries = int_range 1 10 in
        return (FM.config ~drop ~duplicate ~max_tries ~timeout ())
      else
        let* drop = float_range 0. 0.3 in
        let* duplicate = float_range 0. 0.5 in
        let* timeout = float_range 100. 20_000. in
        let* max_tries = int_range 1 10 in
        return (FM.config ~drop ~duplicate ~max_tries ~timeout ())
    in
    let params, w =
      if floor_regime then
        (Params.create ~c2:params.c2 ~p:params.p ~st:(0.02 *. params.st) ~so:params.so (),
         0.05 *. w)
      else (params, w)
    in
    return (config, params, w))

let print_fault ((c : FM.config), params, w) =
  Printf.sprintf "%s drop=%h dup=%h timeout=%h tries=%d" (print_params (params, w))
    c.FM.drop c.FM.duplicate c.FM.timeout c.FM.max_tries

let fault_seed = 20

let prop_fault_model_fuel_law =
  QCheck.Test.make ~name:"fuel law: fault model" ~count:60
    (QCheck.make ~print:print_fault fault_gen)
    (fun (c, params, w) ->
      fuel_law (fun budget ->
          let s, status = FM.solve_status ?budget c params ~w in
          (Option.map (fun s -> [| s.FM.r |]) s, status)))

(* The saturation floor a/r + a·b/r² = 1 (a = handler load · So, b = So)
   against the contention-free bound, as in [Fault_model.solve_status]. *)
let on_saturation_floor_branch c (params : Params.t) ~w =
  let a = FM.handler_load c *. params.so in
  let r_floor = (a +. Float.sqrt ((a *. a) +. (4. *. a *. params.so))) /. 2. in
  r_floor
  >= w +. FM.expected_timeout_wait c +. (2. *. FM.effective_wire c params) +. (2. *. params.so)

let test_fault_fuel_law_reaches_floor () =
  let draws = QCheck.Gen.generate ~rand:(fixed_rand fault_seed) ~n:60 fault_gen in
  let converged_on_floor =
    List.filter
      (fun (c, params, w) ->
        on_saturation_floor_branch c params ~w
        && (match snd (FM.solve_status c params ~w) with FP.Converged _ -> true | _ -> false))
      draws
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d converging draws take the floor branch"
       (List.length converged_on_floor))
    true
    (List.length converged_on_floor >= 5)

let prop_general_fuel_law =
  let gen =
    QCheck.Gen.(
      let* (params : Params.t), w = params_gen in
      let p = 2 + (params.p mod 7) in
      let params = Params.create ~c2:params.c2 ~p ~st:params.st ~so:params.so () in
      let* servers = int_range 0 (p - 1) in
      return (params, w, servers))
  in
  let print (params, w, servers) =
    Printf.sprintf "%s servers=%d" (print_params (params, w)) servers
  in
  QCheck.Test.make ~name:"fuel law: general" ~count:40 (QCheck.make ~print gen)
    (fun (params, w, servers) ->
      let net =
        if servers = 0 then Harness.general_all_to_all params ~w
        else Harness.general_client_server params ~w ~servers
      in
      fuel_law (fun budget ->
          let s, status = G.solve_status ?budget net in
          (Option.map (fun s -> s.G.cycle_times) s, status)))

let prop_amva_fuel_law =
  let gen =
    QCheck.Gen.(
      let* demands = array_size (int_range 1 4) (float_range 0.1 10.) in
      let* delay = oneof [ return None; map Option.some (float_range 0. 20.) ] in
      let* population = int_range 1 32 in
      return (demands, delay, population))
  in
  let print (demands, delay, population) =
    Printf.sprintf "demands=[%s] delay=%s population=%d"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") demands)))
      (match delay with None -> "none" | Some d -> Printf.sprintf "%h" d)
      population
  in
  QCheck.Test.make ~name:"fuel law: amva" ~count:60 (QCheck.make ~print gen)
    (fun (demands, delay, population) ->
      let stations =
        Array.append
          (Array.map (fun demand -> Station.queueing ~demand ()) demands)
          (match delay with None -> [||] | Some demand -> [| Harness.delay_station ~demand |])
      in
      fuel_law (fun budget ->
          let s, status = Amva.solve_status ?budget ~stations ~population () in
          (Option.map (fun (s : Lopc_mva.Solution.t) -> s.residence) s, status)))

let test_ctmc_budget () =
  (* Fuel is one unit per explored state / power sweep: 5 cannot finish. *)
  (match
     Exact.all_to_all_status ~budget:(Budget.create ~fuel:5 ()) ~p:2 ~w:1000.
       ~so:200. ~st:40. ()
   with
  | None, Ctmc.Exhausted { reason = Budget.Fuel_exhausted _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion, got %s" (Harness.ctmc_status_to_string status));
  (* A pre-cancelled token stops the exploration on its first poll. *)
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  match
    Exact.all_to_all_status ~budget:(Budget.create ~cancel ()) ~p:2 ~w:1000.
      ~so:200. ~st:40. ()
  with
  | None, Ctmc.Exhausted { reason = Budget.Cancelled } -> ()
  | _, status -> Alcotest.failf "expected cancellation, got %s" (Harness.ctmc_status_to_string status)

let client_spec () =
  {
    Spec.nodes = 2;
    threads =
      [|
        None;
        Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 1 };
      |];
    handler = D.Constant 20.;
    reply_handler = D.Constant 20.;
    wire = D.Constant 5.;
    protocol_processor = false;
    gap = 0.;
    polling = false;
    barrier = None;
    topology = None;
    fault = None;
  }

let test_machine_budget () =
  let spec = client_spec () in
  let run budget = Machine.run ?budget ~warmup_cycles:100 ~spec ~cycles:2000 () in
  (* ~6 events per cycle: 2 000 units of fuel clear the 100-cycle warm-up
     and run out mid-measurement. *)
  let starved = run (Some (Budget.create ~fuel:2000 ())) in
  (match starved.Machine.interrupted with
  | Some (Budget.Fuel_exhausted { fuel }) ->
    Alcotest.(check int) "interrupted by its fuel allowance" 2000 fuel
  | _ -> Alcotest.fail "expected an interrupted run");
  (* The measurement window must close at the stop point: an interrupted
     run's time-averaged readouts (which integrate past the last completed
     cycle) would otherwise see time running backwards. *)
  Alcotest.(check bool) "utilization readable after interruption" true
    (Float.is_finite (Metrics.avg_request_util starved.Machine.metrics));
  (* Fuel is simulation progress: the same starved run replays exactly. *)
  let again = run (Some (Budget.create ~fuel:2000 ())) in
  Alcotest.(check (float 0.)) "starved runs are deterministic"
    (Metrics.mean_response starved.Machine.metrics)
    (Metrics.mean_response again.Machine.metrics);
  (* A budget large enough never to fire leaves the run bit-identical. *)
  let free = run None in
  let roomy = run (Some (Budget.create ~fuel:100_000_000 ())) in
  Alcotest.(check bool) "roomy budget does not interrupt" true
    (roomy.Machine.interrupted = None);
  Alcotest.(check (float 0.)) "budgeted = unbudgeted, bit for bit"
    (Metrics.mean_response free.Machine.metrics)
    (Metrics.mean_response roomy.Machine.metrics)

let test_machine_cancellation () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let r =
    Machine.run ~budget:(Budget.create ~cancel ()) ~spec:(client_spec ())
      ~cycles:2000 ()
  in
  Alcotest.(check bool) "observed within one event" true
    (r.Machine.interrupted = Some Budget.Cancelled)

(* --- the degradation cascade --------------------------------------------- *)

let test_cascade_first_success () =
  let o = Cascade.run [ Cascade.attempt "exact" (fun () -> Ok 1.) ] in
  Alcotest.(check string) "provenance" "exact" o.Cascade.provenance;
  Alcotest.(check (option (float 0.))) "value" (Some 1.) o.Cascade.value;
  Alcotest.(check (list (pair string string))) "no trail" [] o.Cascade.trail

let test_cascade_fallback () =
  let o =
    Cascade.run
      [
        Cascade.attempt "exact" (fun () -> Error "state-space");
        Cascade.attempt "amva" (fun () -> Error "exhausted");
        Cascade.attempt "bound" (fun () -> Ok 3.);
      ]
  in
  Alcotest.(check string) "provenance names stage and reason"
    "approx:bound:exhausted" o.Cascade.provenance;
  Alcotest.(check (list (pair string string)))
    "trail in attempt order"
    [ ("exact", "state-space"); ("amva", "exhausted") ]
    o.Cascade.trail;
  Alcotest.(check (option (float 0.))) "value" (Some 3.) o.Cascade.value

let test_cascade_all_fail () =
  let o =
    Cascade.run
      [
        Cascade.attempt "exact" (fun () -> Error "state-space");
        Cascade.attempt "bound" (fun () -> Error "diverged");
      ]
  in
  Alcotest.(check string) "failed provenance" Cascade.failed_provenance
    o.Cascade.provenance;
  Alcotest.(check bool) "no value" true (o.Cascade.value = None);
  Alcotest.(check (list (pair string string)))
    "trail names every stage"
    [ ("exact", "state-space"); ("bound", "diverged") ]
    o.Cascade.trail

let test_cascade_jobs_invariant () =
  (* The whole point of fuel over wall clock: the cascade artifact —
     which degrades through three tiers — renders byte-identically
     however many domains run it. *)
  let render jobs =
    let plan = List.assoc "cascade" (Experiments.plans ()) in
    Parallel.with_pool ~jobs (fun pool ->
        Table.to_csv (Experiments.run_plan ~pool plan))
  in
  Alcotest.(check string) "--jobs 1 = --jobs 8, byte for byte" (render 1) (render 8)

(* Every model's one solving entry at one default point (P = 32,
   W/St/So = 1000/40/200, C² = 1): no fuel stops it before its first
   evaluation, a flipped token stops it too, and without a budget it
   converges. The pinned bits are what each model's raising [solve]
   returned before those entries went; Windowed's are its bracketed
   solve's on R, which the bisection on the rate it replaced missed by
   about 2e-12 relative (0x1.4b99dda5420c3p-11). *)
let test_every_solve_status_budget () =
  let params = Params.create ~c2:1. ~p:32 ~st:40. ~so:200. () and w = 1000. in
  let answer field (s, status) = (Option.map field s, status) in
  let fault = FM.config ~drop:0.01 ~timeout:20000. () in
  let hotspot =
    Lopc_workloads.Pattern.to_general params ~w
      (Lopc_workloads.Pattern.Hotspot { hot = 0; fraction = 0.3 })
  in
  let stations = [| Station.queueing ~demand:1. (); Station.queueing ~demand:2. () |] in
  let topology = Lopc_topology.Topology.create ~nodes:32 ~per_hop:1. ~link_time:20. () in
  let cases =
    [
      ( "All_to_all",
        (fun budget -> answer (fun s -> s.A.r) (A.solve_status ?budget params ~w)),
        0x1.b07eb2a5ca21fp+10 );
      ( "Fault_model",
        (fun budget -> answer (fun s -> s.FM.r) (FM.solve_status ?budget fault params ~w)),
        0x1.0509507e49e2ap+11 );
      ( "General",
        (fun budget -> answer (fun s -> s.G.cycle_times.(0)) (G.solve_status ?budget hotspot)),
        0x1.fcd7a629a1759p+14 );
      ( "Amva",
        (fun budget ->
          answer
            (fun s -> s.Lopc_mva.Solution.cycle_time)
            (Amva.solve_status ?budget ~think_time:3. ~stations ~population:5 ())),
        0x1.a2e2ac13ef8e9p+3 );
      ( "Gap",
        (fun budget ->
          answer (fun s -> s.Lopc.Gap.r) (Lopc.Gap.solve_status ?budget ~gap:10. params ~w)),
        0x1.b917e74064b44p+10 );
      ( "Torus",
        (fun budget ->
          answer (fun s -> s.Lopc.Torus.r) (Lopc.Torus.solve_status ?budget params ~topology ~w)),
        0x1.bb77ceb1308ebp+10 );
      ( "Windowed",
        (fun budget ->
          answer
            (fun s -> s.Lopc.Windowed.node_rate)
            (Lopc.Windowed.solve_status ?budget ~window:2 params ~w)),
        0x1.4b99dda53ec27p-11 );
    ]
  in
  List.iter
    (fun (who, solve, bits) ->
      (match solve (Some (Budget.create ~fuel:0 ())) with
      | None, FP.Exhausted { iters = 0; reason = Budget.Fuel_exhausted _ } -> ()
      | _, status -> Alcotest.failf "%s, no fuel: %s" who (FP.status_to_string status));
      let cancel = Cancel.create () in
      Cancel.cancel cancel;
      (match solve (Some (Budget.create ~cancel ())) with
      | None, FP.Exhausted { iters = 0; reason = Budget.Cancelled } -> ()
      | _, status -> Alcotest.failf "%s, cancelled: %s" who (FP.status_to_string status));
      match solve None with
      | Some x, FP.Converged _ ->
        Alcotest.(check (float 0.)) (who ^ ": converged bits") bits x
      | _, status -> Alcotest.failf "%s: %s" who (FP.status_to_string status))
    cases

let suite =
  [
    Alcotest.test_case "budget: fuel accounting" `Quick test_budget_fuel;
    Alcotest.test_case "cancel: outranks fuel" `Quick test_cancel_outranks_fuel;
    Alcotest.test_case "fixed point: budget" `Quick test_fixed_point_budget;
    Alcotest.test_case "fixed point: cancel within one iteration" `Quick
      test_cancelled_solver_stops_within_one_iteration;
    Alcotest.test_case "all-to-all: budget" `Quick test_all_to_all_budget;
    Alcotest.test_case "general: budget" `Quick test_general_budget;
    Alcotest.test_case "amva: budget" `Quick test_amva_budget;
    Alcotest.test_case "fault model: budget" `Quick test_fault_model_budget;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand 17) prop_all_to_all_fuel_law;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand fault_seed) prop_fault_model_fuel_law;
    Alcotest.test_case "fuel law: fault draws reach the floor branch" `Quick
      test_fault_fuel_law_reaches_floor;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand 18) prop_general_fuel_law;
    QCheck_alcotest.to_alcotest ~rand:(fixed_rand 19) prop_amva_fuel_law;
    Alcotest.test_case "ctmc: budget and cancel" `Quick test_ctmc_budget;
    Alcotest.test_case "machine: budget" `Quick test_machine_budget;
    Alcotest.test_case "machine: cancellation" `Quick test_machine_cancellation;
    Alcotest.test_case "cascade: first success" `Quick test_cascade_first_success;
    Alcotest.test_case "cascade: fallback provenance" `Quick test_cascade_fallback;
    Alcotest.test_case "cascade: all stages fail" `Quick test_cascade_all_fail;
    Alcotest.test_case "cascade: jobs invariant" `Quick test_cascade_jobs_invariant;
    Alcotest.test_case "every solve_status: budget, cancel, pinned bits" `Quick
      test_every_solve_status_budget;
  ]
