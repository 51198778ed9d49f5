(* Tests for lopc_mva: exact MVA ground truths, AMVA agreement, priority
   approximations, multi-class consistency. *)

module Station = Lopc_mva.Station
module Solution = Lopc_mva.Solution
module Exact = Lopc_mva.Exact_mva
module Amva = Lopc_mva.Amva
module Priority = Lopc_mva.Priority

let feq tol = Alcotest.(check (float tol))

let test_exact_single_customer () =
  (* One customer never queues: X = 1 / (Z + sum of demands). *)
  let stations = [| Station.queueing ~demand:2. (); Station.queueing ~demand:3. () |] in
  let s = Exact.solve ~think_time:5. ~stations ~population:1 () in
  feq 1e-12 "throughput" 0.1 s.Solution.throughput;
  feq 1e-12 "R0" 2. s.Solution.residence.(0);
  feq 1e-12 "R1" 3. s.Solution.residence.(1)

let test_exact_machine_repairman () =
  (* Classic machine-repairman: N machines, think Z, one repair station
     with demand D. Closed-form for N=2, Z=1, D=1:
     n=1: R=1, X=1/2, Q=1/2.
     n=2: R=1·(1+1/2)=3/2, X=2/(1+3/2)=4/5, Q=6/5. *)
  let stations = [| Station.queueing ~demand:1. () |] in
  let s = Exact.solve ~think_time:1. ~stations ~population:2 () in
  feq 1e-12 "X" 0.8 s.Solution.throughput;
  feq 1e-12 "Q" 1.2 s.Solution.queue_length.(0);
  feq 1e-12 "U" 0.8 s.Solution.utilization.(0)

let test_exact_little_law () =
  let stations =
    [| Station.queueing ~demand:1. (); Harness.delay_station ~demand:4.; Station.queueing ~demand:0.5 () |]
  in
  let s = Exact.solve ~think_time:2. ~stations ~population:7 () in
  (* Sum of queue lengths plus customers "in think" equals N. *)
  let in_think = s.Solution.throughput *. 2. in
  let total = in_think +. Array.fold_left ( +. ) 0. s.Solution.queue_length in
  feq 1e-9 "customers conserved" 7. total

let test_exact_delay_station_no_queueing () =
  let stations = [| Harness.delay_station ~demand:3. |] in
  let s = Exact.solve ~stations ~population:10 () in
  feq 1e-12 "R = demand" 3. s.Solution.residence.(0);
  feq 1e-12 "X = N/D" (10. /. 3.) s.Solution.throughput

let test_exact_throughput_curve_monotone () =
  let stations = [| Station.queueing ~demand:1. (); Station.queueing ~demand:2. () |] in
  let xs =
    Array.init 20 (fun n ->
        (Exact.solve ~think_time:3. ~stations ~population:(n + 1) ()).Solution.throughput)
  in
  for i = 1 to 19 do
    if xs.(i) < xs.(i - 1) -. 1e-12 then Alcotest.fail "throughput decreased with N"
  done;
  (* Asymptote: bottleneck bound 1/Dmax = 0.5. *)
  Alcotest.(check bool) "below bottleneck bound" true (xs.(19) <= 0.5 +. 1e-9)

let test_exact_invalid () =
  Alcotest.(check bool) "negative population rejected" true
    (try
       ignore (Exact.solve ~stations:[| Station.queueing ~demand:1. () |] ~population:(-1) ());
       false
     with Invalid_argument _ -> true)

let amva_vs_exact approximation ~n ~expect_within =
  let stations = [| Station.queueing ~demand:1. (); Station.queueing ~demand:0.7 () |] in
  let exact = Exact.solve ~think_time:5. ~stations ~population:n () in
  let approx = Amva.solve ~approximation ~think_time:5. ~stations ~population:n () in
  let err =
    Float.abs (approx.Solution.throughput -. exact.Solution.throughput)
    /. exact.Solution.throughput
  in
  if err > expect_within then
    Alcotest.failf "AMVA error %.4f exceeds %.4f (X exact %g vs approx %g)" err
      expect_within exact.Solution.throughput approx.Solution.throughput

(* Known accuracy envelopes: Schweitzer a few percent at moderate N; Bard
   somewhat worse (it counts the arriving customer) but shrinking with N. *)
let test_schweitzer_close_to_exact () = amva_vs_exact Amva.Schweitzer ~n:10 ~expect_within:0.06

let test_bard_close_to_exact_large_n () = amva_vs_exact Amva.Bard ~n:50 ~expect_within:0.03

let test_schweitzer_beats_bard () =
  let stations = [| Station.queueing ~demand:1. (); Station.queueing ~demand:0.7 () |] in
  let exact = Exact.solve ~think_time:5. ~stations ~population:10 () in
  let err approximation =
    let s = Amva.solve ~approximation ~think_time:5. ~stations ~population:10 () in
    Float.abs (s.Solution.throughput -. exact.Solution.throughput)
  in
  Alcotest.(check bool) "schweitzer at least as accurate" true
    (err Amva.Schweitzer <= err Amva.Bard +. 1e-12)

let test_bard_pessimistic () =
  (* Bard counts the arriving customer itself, so it over-predicts queue
     lengths => under-predicts throughput. *)
  let stations = [| Station.queueing ~demand:1. () |] in
  let exact = Exact.solve ~think_time:2. ~stations ~population:5 () in
  let bard = Amva.solve ~approximation:Amva.Bard ~think_time:2. ~stations ~population:5 () in
  Alcotest.(check bool) "bard underestimates X" true
    (bard.Solution.throughput <= exact.Solution.throughput +. 1e-9)

let test_amva_population_zero () =
  let stations = [| Station.queueing ~demand:1. () |] in
  let s = Amva.solve ~stations ~population:0 () in
  feq 0. "zero throughput" 0. s.Solution.throughput

let test_amva_scv_reduces_waiting () =
  (* Constant service (scv 0) queues less than exponential (scv 1). *)
  let solve scv =
    let stations = [| Station.queueing ~scv ~demand:1. () |] in
    (Amva.solve ~think_time:1. ~stations ~population:8 ()).Solution.throughput
  in
  Alcotest.(check bool) "X(scv=0) > X(scv=1)" true (solve 0. > solve 1.);
  Alcotest.(check bool) "X(scv=2) < X(scv=1)" true (solve 2. < solve 1.)

let test_priority_bkt () =
  feq 1e-12 "no handlers" 10. (Priority.bkt ~work:10. ~handler_service:2. ~handler_queue:0. ~handler_util:0.);
  (* Half the processor stolen doubles the effective time. *)
  feq 1e-12 "dilation" 20. (Priority.bkt ~work:10. ~handler_service:2. ~handler_queue:0. ~handler_util:0.5);
  (* Queued handler work is added before dilation. *)
  feq 1e-12 "queued work" 28. (Priority.bkt ~work:10. ~handler_service:2. ~handler_queue:2. ~handler_util:0.5)

let test_priority_bkt_dominates_shadow () =
  let bkt = Priority.bkt ~work:10. ~handler_service:2. ~handler_queue:1.5 ~handler_util:0.3 in
  let shadow = Priority.shadow_server ~work:10. ~handler_util:0.3 in
  Alcotest.(check bool) "bkt >= shadow" true (bkt >= shadow)

let test_priority_saturated () =
  Alcotest.(check bool) "util >= 1 rejected" true
    (try
       ignore (Priority.shadow_server ~work:1. ~handler_util:1.);
       false
     with Invalid_argument _ -> true)

let test_multiserver_reduces_to_single () =
  (* servers = 1 must change nothing. *)
  let demand = 1.3 in
  let solve servers =
    let stations = [| Station.queueing ~servers ~demand () |] in
    (Amva.solve ~think_time:4. ~stations ~population:10 ()).Solution.throughput
  in
  feq 1e-12 "c=1 unchanged" (solve 1)
    ((Amva.solve ~think_time:4.
        ~stations:[| Station.queueing ~demand () |]
        ~population:10 ())
       .Solution.throughput)

let test_multiserver_monotone () =
  let solve servers =
    let stations = [| Station.queueing ~servers ~demand:2. () |] in
    (Amva.solve ~think_time:2. ~stations ~population:20 ()).Solution.throughput
  in
  Alcotest.(check bool) "more servers, more throughput" true
    (solve 1 < solve 2 && solve 2 < solve 4)

let test_multiserver_delay_limit () =
  (* With many servers the station degenerates into a pure delay:
     X -> N / (Z + D). *)
  let stations = [| Station.queueing ~servers:64 ~demand:2. () |] in
  let s = Amva.solve ~think_time:2. ~stations ~population:8 () in
  Alcotest.(check bool) "close to delay limit" true
    (Float.abs (s.Solution.throughput -. (8. /. 4.)) /. 2. < 0.15)

let test_multiserver_rejected_by_exact () =
  let stations = [| Station.queueing ~servers:2 ~demand:1. () |] in
  Alcotest.(check bool) "exact solver refuses" true
    (try
       ignore (Exact.solve ~stations ~population:2 ());
       false
     with Invalid_argument _ -> true)

let test_solution_little_consistent () =
  let stations = [| Station.queueing ~demand:1. () |] in
  let s = Exact.solve ~stations ~population:4 () in
  Alcotest.(check bool) "little holds with Z=0" true
    (Harness.little_consistent ~population:4 s)

let prop_exact_mva_bounds =
  (* Throughput never exceeds min(N / (Z + sum D), 1 / Dmax). *)
  QCheck.Test.make ~name:"exact MVA respects asymptotic bounds" ~count:200
    QCheck.(
      quad (int_range 1 30) (float_range 0.1 10.) (float_range 0.1 10.) (float_range 0. 20.))
    (fun (n, d1, d2, z) ->
      let stations = [| Station.queueing ~demand:d1 (); Station.queueing ~demand:d2 () |] in
      let s = Exact.solve ~think_time:z ~stations ~population:n () in
      let x = s.Solution.throughput in
      x <= (Float.of_int n /. (z +. d1 +. d2)) +. 1e-9
      && x <= (1. /. Float.max d1 d2) +. 1e-9
      && x >= 0.)

let prop_bard_below_exact =
  QCheck.Test.make ~name:"Bard AMVA throughput <= exact" ~count:100
    QCheck.(triple (int_range 2 20) (float_range 0.1 5.) (float_range 0.5 10.))
    (fun (n, d, z) ->
      let stations = [| Station.queueing ~demand:d () |] in
      let exact = Exact.solve ~think_time:z ~stations ~population:n () in
      let bard = Amva.solve ~approximation:Amva.Bard ~think_time:z ~stations ~population:n () in
      bard.Solution.throughput <= exact.Solution.throughput +. 1e-6)

let suite =
  [
    Alcotest.test_case "exact: single customer" `Quick test_exact_single_customer;
    Alcotest.test_case "exact: machine repairman closed form" `Quick test_exact_machine_repairman;
    Alcotest.test_case "exact: Little's law" `Quick test_exact_little_law;
    Alcotest.test_case "exact: delay stations never queue" `Quick test_exact_delay_station_no_queueing;
    Alcotest.test_case "exact: throughput curve monotone" `Quick test_exact_throughput_curve_monotone;
    Alcotest.test_case "exact: invalid input" `Quick test_exact_invalid;
    Alcotest.test_case "schweitzer close to exact" `Quick test_schweitzer_close_to_exact;
    Alcotest.test_case "bard close to exact at large N" `Quick test_bard_close_to_exact_large_n;
    Alcotest.test_case "schweitzer beats bard" `Quick test_schweitzer_beats_bard;
    Alcotest.test_case "bard is pessimistic" `Quick test_bard_pessimistic;
    Alcotest.test_case "amva population zero" `Quick test_amva_population_zero;
    Alcotest.test_case "amva scv correction direction" `Quick test_amva_scv_reduces_waiting;
    Alcotest.test_case "priority BKT formula" `Quick test_priority_bkt;
    Alcotest.test_case "priority BKT dominates shadow server" `Quick test_priority_bkt_dominates_shadow;
    Alcotest.test_case "priority saturation rejected" `Quick test_priority_saturated;
    Alcotest.test_case "multiserver: c=1 unchanged" `Quick test_multiserver_reduces_to_single;
    Alcotest.test_case "multiserver: monotone in c" `Quick test_multiserver_monotone;
    Alcotest.test_case "multiserver: delay limit" `Quick test_multiserver_delay_limit;
    Alcotest.test_case "multiserver: exact solver refuses" `Quick test_multiserver_rejected_by_exact;
    Alcotest.test_case "solution little consistency" `Quick test_solution_little_consistent;
    QCheck_alcotest.to_alcotest prop_exact_mva_bounds;
    QCheck_alcotest.to_alcotest prop_bard_below_exact;
  ]
