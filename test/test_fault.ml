(* Tests for the fault-injection layer: config validation, backoff
   schedules, the retry protocol's bookkeeping, deterministic replay
   (including bit-identity of a zero-probability fault config with the
   fault-free baseline), and the analytical companion Lopc.Fault_model. *)

module D = Lopc_dist.Distribution
module Fault = Lopc_activemsg.Fault
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Pattern = Lopc_workloads.Pattern
module Fixed_point = Lopc_numerics.Fixed_point

let feq tol = Alcotest.(check (float tol))
let is_error = function Error _ -> true | Ok _ -> false

(* A two-node client/server machine: the thread on node 1 sends every
   request to node 0. *)
let client_server_spec ?fault ~work ~handler ~wire () =
  {
    Spec.nodes = 2;
    threads = [| None; Some { Spec.work; route = (fun _ _ -> [ 0 ]); window = 1 } |];
    handler;
    reply_handler = handler;
    wire;
    protocol_processor = false;
    gap = 0.;
    polling = false;
    barrier = None;
    topology = None;
    fault;
  }

let all_to_all_spec ?fault nodes ~w =
  Pattern.to_spec ?fault ~nodes ~work:(D.Exponential w) ~handler:(D.Exponential 40.)
    ~wire:(D.Constant 10.) Pattern.All_to_all

(* --- config validation -------------------------------------------------- *)

let test_validate () =
  let ok t = Alcotest.(check bool) "valid" false (is_error (Fault.validate t)) in
  let bad name t =
    Alcotest.(check bool) name true (is_error (Fault.validate t))
  in
  ok (Fault.create ~timeout:100. ());
  ok
    (Fault.create ~drop:0.5 ~duplicate:1. ~delay_epsilon:1.
       ~delay_spike:(D.Exponential 50.)
       ~backoff:(Fault.Exponential { factor = 2.; cap = 16. })
       ~max_tries:1 ~timeout:1. ());
  bad "drop = 1" (Fault.create ~drop:1. ~timeout:100. ());
  bad "negative drop" (Fault.create ~drop:(-0.1) ~timeout:100. ());
  bad "duplicate > 1" (Fault.create ~duplicate:1.5 ~timeout:100. ());
  bad "zero timeout" (Fault.create ~timeout:0. ());
  bad "infinite timeout" (Fault.create ~timeout:Float.infinity ());
  bad "zero tries" (Fault.create ~max_tries:0 ~timeout:100. ());
  bad "backoff factor < 1"
    (Fault.create ~backoff:(Fault.Exponential { factor = 0.5; cap = 8. }) ~timeout:100. ());
  bad "jitter spread >= 1"
    (Fault.create ~backoff:(Fault.Jittered { spread = 1. }) ~timeout:100. ())

let test_spec_restrictions () =
  (* Faults require blocking threads... *)
  let windowed =
    {
      (client_server_spec
         ~fault:(Fault.create ~timeout:100. ())
         ~work:(D.Constant 100.) ~handler:(D.Constant 10.) ~wire:(D.Constant 5.) ())
      with
      Spec.threads =
        [| None; Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 0 ]); window = 2 } |];
    }
  in
  Alcotest.(check bool) "window > 1 rejected" true (is_error (Spec.validate windowed));
  (* ...and the contention-free interconnect. *)
  let t = Lopc_topology.Topology.create ~nodes:4 ~per_hop:1. ~link_time:1. () in
  let routed =
    {
      Spec.nodes = 4;
      threads =
        [| Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 3 ]); window = 1 };
           None; None; None |];
      handler = D.Constant 10.;
      reply_handler = D.Constant 10.;
      wire = D.Constant 5.;
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = Some t;
      fault = Some (Fault.create ~timeout:100. ());
    }
  in
  Alcotest.(check bool) "topology rejected" true (is_error (Spec.validate routed))

(* --- backoff schedules -------------------------------------------------- *)

let test_backoff_schedule () =
  let exp2 =
    Fault.create ~backoff:(Fault.Exponential { factor = 2.; cap = 8. }) ~timeout:100. ()
  in
  List.iter
    (fun (try_, expect) ->
      feq 1e-12 (Printf.sprintf "exp try %d" try_) expect
        (Fault.timeout_multiplier exp2 ~try_))
    [ (1, 1.); (2, 2.); (3, 4.); (4, 8.); (5, 8.); (9, 8.) ];
  let fixed = Fault.create ~timeout:100. () in
  feq 1e-12 "fixed" 1. (Fault.timeout_multiplier fixed ~try_:7);
  feq 1e-12 "mean timeout" 400. (Fault.mean_timeout exp2 ~try_:3);
  let jit = Fault.create ~backoff:(Fault.Jittered { spread = 0.25 }) ~timeout:100. () in
  feq 1e-12 "jitter mean multiplier" 1. (Fault.timeout_multiplier jit ~try_:3);
  let rng = Lopc_prng.Rng.create 7 in
  for try_ = 1 to 50 do
    let t = Fault.timeout_for jit ~try_ rng in
    Alcotest.(check bool) "jitter within band" true (t >= 75. && t <= 125.)
  done

(* --- retry protocol bookkeeping ----------------------------------------- *)

let test_retransmits_under_drop () =
  let fault = Fault.create ~drop:0.3 ~max_tries:25 ~timeout:2_000. () in
  let spec =
    client_server_spec ~fault ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:2_000 ~warmup_cycles:0 () in
  let m = r.Machine.metrics in
  Alcotest.(check bool) "retransmits happened" true (m.Metrics.retransmits > 0);
  Alcotest.(check bool) "drops counted" true (m.Metrics.dropped_messages > 0);
  Alcotest.(check bool) "tries inflated" true (Metrics.mean_tries m > 1.);
  (* With a generous budget no cycle is abandoned. *)
  Alcotest.(check int) "no failed cycles" 0 m.Metrics.failed_cycles;
  Alcotest.(check bool) "goodput below offered load" true
    (Metrics.goodput m <= Metrics.offered_load m +. 1e-12);
  (* E[tries] = 1/(1-q) with q = 1 - 0.7^2: mean tries ~ 2.04. *)
  let predicted =
    Lopc.Fault_model.expected_tries
      (Lopc.Fault_model.config ~drop:0.3 ~max_tries:25 ~timeout:2_000. ())
  in
  feq 0.15 "retry inflation matches the geometric prediction" predicted
    (Metrics.mean_tries m)

let test_duplicates_and_stale_replies () =
  let fault = Fault.create ~duplicate:1. ~timeout:1e9 () in
  let spec =
    client_server_spec ~fault ~work:(D.Constant 100.) ~handler:(D.Constant 20.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:500 ~warmup_cycles:0 () in
  let m = r.Machine.metrics in
  (* Every request arrives twice (one flagged duplicate), every reply
     twice (the second is stale), and nothing is ever retransmitted. *)
  Alcotest.(check bool) "duplicates flagged" true (m.Metrics.duplicate_deliveries > 0);
  Alcotest.(check bool) "stale replies dropped" true (m.Metrics.stale_replies > 0);
  Alcotest.(check int) "no retransmits" 0 m.Metrics.retransmits;
  Alcotest.(check int) "no failed cycles" 0 m.Metrics.failed_cycles

let test_budget_exhaustion () =
  (* Heavy loss against a tiny budget: some cycles must be abandoned, and
     the machine still terminates with the requested completions. *)
  let fault = Fault.create ~drop:0.85 ~max_tries:2 ~timeout:500. () in
  let spec =
    client_server_spec ~fault ~work:(D.Constant 50.) ~handler:(D.Constant 10.)
      ~wire:(D.Constant 5.) ()
  in
  let r = Machine.run ~spec ~cycles:800 ~warmup_cycles:0 () in
  let m = r.Machine.metrics in
  Alcotest.(check bool) "cycles abandoned" true (m.Metrics.failed_cycles > 0);
  (* q = 1 - (0.15·(...))² is large; the observed failure fraction should
     be in the rough vicinity of the model's q^B. *)
  let c = Lopc.Fault_model.config ~drop:0.85 ~max_tries:2 ~timeout:500. () in
  (* [metrics.cycles] counts answered measured cycles only, so the failure
     fraction is failed / (failed + answered). *)
  let observed =
    Float.of_int m.Metrics.failed_cycles
    /. Float.of_int (m.Metrics.failed_cycles + m.Metrics.cycles)
  in
  feq 0.1 "failure fraction near q^B" (Lopc.Fault_model.failure_probability c) observed

(* --- determinism -------------------------------------------------------- *)

let run_fingerprint ~seed spec =
  let r = Machine.run ~seed ~spec ~cycles:400 () in
  ( Metrics.mean_response r.Machine.metrics,
    r.Machine.final_time,
    r.Machine.events,
    r.Machine.metrics.Metrics.retransmits,
    r.Machine.metrics.Metrics.dropped_messages )

let prop_zero_fault_bit_identical =
  QCheck.Test.make ~name:"fault: zero-probability config is bit-identical to no fault"
    ~count:10
    QCheck.(pair (int_range 2 6) (pair (float_range 50. 800.) (int_range 0 1_000)))
    (fun (nodes, (w, seed)) ->
      let base = Machine.run ~seed ~spec:(all_to_all_spec nodes ~w) ~cycles:400 () in
      let faulty =
        Machine.run ~seed
          ~spec:(all_to_all_spec ~fault:(Fault.create ~timeout:1e12 ()) nodes ~w)
          ~cycles:400 ()
      in
      Float.equal
        (Metrics.mean_response base.Machine.metrics)
        (Metrics.mean_response faulty.Machine.metrics)
      && Float.equal base.Machine.final_time faulty.Machine.final_time
      && base.Machine.events = faulty.Machine.events
      && base.Machine.metrics.Metrics.cycles = faulty.Machine.metrics.Metrics.cycles)

let prop_faulty_replay_deterministic =
  QCheck.Test.make ~name:"fault: same seed replays a faulty run bit-for-bit" ~count:8
    QCheck.(pair (int_range 2 5) (int_range 0 1_000))
    (fun (nodes, seed) ->
      let fault =
        Fault.create ~drop:0.05 ~duplicate:0.1 ~delay_epsilon:0.1
          ~delay_spike:(D.Exponential 300.)
          ~backoff:(Fault.Jittered { spread = 0.3 })
          ~max_tries:12 ~timeout:5_000. ()
      in
      let spec = all_to_all_spec ~fault nodes ~w:300. in
      let a = run_fingerprint ~seed spec in
      let b = run_fingerprint ~seed spec in
      let c = run_fingerprint ~seed:(seed + 1) spec in
      let (ra, ta, ea, xa, da) = a and (rb, tb, eb, xb, db) = b in
      let (_, tc, _, _, _) = c in
      Float.equal ra rb && Float.equal ta tb && ea = eb && xa = xb && da = db
      && not (Float.equal ta tc))

(* --- adversarial specs -------------------------------------------------- *)

let prop_adversarial_specs =
  (* Arbitrary (including nonsensical) fault configs and windows: the spec
     either fails validation with a message, or the machine runs it (the
     documented Invalid_argument contract for bad routes is allowed). *)
  QCheck.Test.make ~name:"fault: arbitrary specs validate or run" ~count:80
    QCheck.(
      pair
        (pair (int_range 1 6) (int_range 1 3))
        (triple (float_range (-0.2) 1.2) (float_range (-100.) 5_000.) (int_range 0 4)))
    (fun ((nodes, window), (drop, timeout, max_tries)) ->
      let fault =
        Fault.create ~drop
          ~duplicate:(Float.abs drop /. 2.)
          ~delay_epsilon:(1.2 -. drop)
          ~delay_spike:(D.Exponential 100.)
          ~max_tries ~timeout ()
      in
      (* [create] performs no range checks — validation is Spec.validate's
         job, which must catch every bad field generated above. *)
      let spec =
        {
          Spec.nodes;
          threads =
            Array.init nodes (fun i ->
                if i = nodes - 1 then
                  Some { Spec.work = D.Exponential 50.; route = (fun _ _ -> [ 0 ]); window }
                else None);
          handler = D.Exponential 20.;
          reply_handler = D.Exponential 20.;
          wire = D.Constant 5.;
          protocol_processor = false;
          gap = 0.;
          polling = false;
          barrier = None;
          topology = None;
          fault = Some fault;
        }
      in
      match Spec.validate spec with
      | Error msg -> String.length msg > 0
      | Ok _ -> (
        match Machine.run ~spec ~cycles:40 ~warmup_cycles:0 () with
        | _ -> true
        | exception Invalid_argument _ -> true))

(* --- analytical companion ----------------------------------------------- *)

let prop_model_reduces_to_all_to_all =
  QCheck.Test.make ~name:"fault model: zero faults reduce exactly to All_to_all"
    ~count:50
    QCheck.(
      pair
        (pair (int_range 2 64) (float_range 0. 4.))
        (triple (float_range 1. 200.) (float_range 10. 500.) (float_range 0. 2_000.)))
    (fun ((p, c2), (st, so, w)) ->
      let params = Lopc.Params.create ~c2 ~p ~st ~so () in
      let faulty = Lopc.Fault_model.solve (Lopc.Fault_model.config ~timeout:1_000. ()) params ~w in
      let base = Lopc.All_to_all.solve params ~w in
      Float.abs (faulty.Lopc.Fault_model.r -. base.Lopc.All_to_all.r)
      <= (1e-9 *. base.Lopc.All_to_all.r) +. 1e-9)

(* Scaling W, St, So, the spike mean and the timeout by k scales R by k:
   the probabilities and the backoff multipliers are dimensionless. As
   for All_to_all, Brent's absolute tolerance leaves the scaled root
   within rounding; 20,000 random cases of this generator at k ∈ {0.5,
   3, 1000} measured a worst relative gap of 1.1e-15, and the bound is
   1e-13. *)
let prop_model_time_scaling =
  QCheck.Test.make ~name:"fault model: scaling every time by k scales R by k" ~count:200
    QCheck.(
      triple
        (triple (int_range 2 128) (oneofl [ 0.; 0.5; 1.; 2. ]) (int_range 1 10))
        (triple (float_range 0. 200.) (float_range 1. 500.) (float_range 0. 5000.))
        (pair
           (triple (float_range 0. 0.2) (float_range 0. 0.2) (float_range 0. 0.3))
           (pair (float_range 0. 2000.) (float_range 500. 50_500.))))
    (fun ((p, c2, max_tries), (st, so, w), ((drop, duplicate, delay_epsilon), (spike, timeout))) ->
      let solve k =
        Lopc.Fault_model.solve_status
          (Lopc.Fault_model.config ~drop ~duplicate ~delay_epsilon ~spike_mean:(k *. spike)
             ~max_tries ~timeout:(k *. timeout) ())
          (Lopc.Params.create ~c2 ~p ~st:(k *. st) ~so:(k *. so) ())
          ~w:(k *. w)
      in
      match solve 1. with
      | None, _ -> QCheck.assume_fail ()
      | Some base, _ ->
        List.for_all
          (fun k ->
            let r0 = k *. base.Lopc.Fault_model.r in
            match solve k with
            | Some s, _ when Float.abs (s.Lopc.Fault_model.r -. r0) <= 1e-13 *. r0 -> true
            | Some s, _ ->
              QCheck.Test.fail_reportf "k = %g: R = %.17g, k·R = %.17g" k s.Lopc.Fault_model.r r0
            | None, status ->
              QCheck.Test.fail_reportf "k = %g: %s" k (Fixed_point.status_to_string status))
          [ 0.5; 3.; 1000. ])

let test_model_statuses () =
  let c = Lopc.Fault_model.config ~drop:0.1 ~max_tries:10 ~timeout:5_000. () in
  let params = Lopc.Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  (match Lopc.Fault_model.solve_status c params ~w:1_000. with
  | Some s, Fixed_point.Converged _ ->
    Alcotest.(check bool) "faulty R above reliable R" true
      (s.Lopc.Fault_model.r > (Lopc.All_to_all.solve params ~w:1_000.).Lopc.All_to_all.r)
  | _ -> Alcotest.fail "expected convergence at 10% loss");
  Alcotest.check_raises "invalid config raises"
    (Invalid_argument "Fault_model: drop probability must lie in [0, 1)") (fun () ->
      ignore (Lopc.Fault_model.solve (Lopc.Fault_model.config ~drop:2. ~timeout:100. ()) params ~w:0.))

let test_model_saturation_floor_branch () =
  (* Heavy loss and duplication with no work and no wire time put the
     retry-inflated saturation floor (about 498 cycles here) above the
     contention-free bound (about 2·So = 400): the solver brackets from
     just above the floor, where the request station is below full
     utilization. *)
  let c = Lopc.Fault_model.config ~drop:0.5 ~duplicate:1. ~timeout:1. () in
  let params = Lopc.Params.create ~c2:1. ~p:32 ~st:0. ~so:200. () in
  match Lopc.Fault_model.solve_status c params ~w:0. with
  | Some s, (Fixed_point.Converged _ as status) ->
    Alcotest.(check string) "outcome" "converged in 16 iterations"
      (Fixed_point.status_to_string status);
    Alcotest.(check string) "cycle time" "999.01" (Printf.sprintf "%.2f" s.Lopc.Fault_model.r);
    Alcotest.(check bool) "request station below full utilization" true
      (s.Lopc.Fault_model.terms.uq < 1.)
  | _, status ->
    Alcotest.failf "expected convergence, got %s" (Fixed_point.status_to_string status)

let suite =
  [
    Alcotest.test_case "fault config validation" `Quick test_validate;
    Alcotest.test_case "faulty spec restrictions" `Quick test_spec_restrictions;
    Alcotest.test_case "backoff schedules" `Quick test_backoff_schedule;
    Alcotest.test_case "retransmits under drop" `Quick test_retransmits_under_drop;
    Alcotest.test_case "duplicates and stale replies" `Quick
      test_duplicates_and_stale_replies;
    Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
    QCheck_alcotest.to_alcotest prop_zero_fault_bit_identical;
    QCheck_alcotest.to_alcotest prop_faulty_replay_deterministic;
    QCheck_alcotest.to_alcotest prop_adversarial_specs;
    QCheck_alcotest.to_alcotest prop_model_reduces_to_all_to_all;
    Alcotest.test_case "fault model statuses" `Quick test_model_statuses;
    Alcotest.test_case "fault model saturation-floor branch" `Quick
      test_model_saturation_floor_branch;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 36) prop_model_time_scaling;
  ]
