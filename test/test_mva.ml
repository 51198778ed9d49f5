(* Tests for lopc_mva: exact MVA ground truths, AMVA agreement, priority
   approximations, multi-class consistency. *)

module Station = Lopc_mva.Station
module Solution = Lopc_mva.Solution
module Exact = Lopc_mva.Exact_mva
module Amva = Lopc_mva.Amva
module Priority = Lopc_mva.Priority
module FP = Lopc_numerics.Fixed_point

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
  let approx = Harness.amva_solve ~approximation ~think_time:5. ~stations ~population:n () in
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
    let s = Harness.amva_solve ~approximation ~think_time:5. ~stations ~population:10 () in
    Float.abs (s.Solution.throughput -. exact.Solution.throughput)
  in
  Alcotest.(check bool) "schweitzer at least as accurate" true
    (err Amva.Schweitzer <= err Amva.Bard +. 1e-12)

let test_bard_pessimistic () =
  (* Bard counts the arriving customer itself, so it over-predicts queue
     lengths => under-predicts throughput. *)
  let stations = [| Station.queueing ~demand:1. () |] in
  let exact = Exact.solve ~think_time:2. ~stations ~population:5 () in
  let bard =
    Harness.amva_solve ~approximation:Amva.Bard ~think_time:2. ~stations ~population:5 ()
  in
  Alcotest.(check bool) "bard underestimates X" true
    (bard.Solution.throughput <= exact.Solution.throughput +. 1e-9)

let test_amva_population_zero () =
  let stations = [| Station.queueing ~demand:1. () |] in
  let s = Harness.amva_solve ~stations ~population:0 () in
  feq 0. "zero throughput" 0. s.Solution.throughput

let test_amva_scv_reduces_waiting () =
  (* Constant service (scv 0) queues less than exponential (scv 1). *)
  let solve scv =
    let stations = [| Station.queueing ~scv ~demand:1. () |] in
    (Harness.amva_solve ~think_time:1. ~stations ~population:8 ()).Solution.throughput
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
    (Harness.amva_solve ~think_time:4. ~stations ~population:10 ()).Solution.throughput
  in
  feq 1e-12 "c=1 unchanged" (solve 1)
    ((Harness.amva_solve ~think_time:4.
        ~stations:[| Station.queueing ~demand () |]
        ~population:10 ())
       .Solution.throughput)

let test_multiserver_monotone () =
  let solve servers =
    let stations = [| Station.queueing ~servers ~demand:2. () |] in
    (Harness.amva_solve ~think_time:2. ~stations ~population:20 ()).Solution.throughput
  in
  Alcotest.(check bool) "more servers, more throughput" true
    (solve 1 < solve 2 && solve 2 < solve 4)

let test_multiserver_delay_limit () =
  (* With many servers the station degenerates into a pure delay:
     X -> N / (Z + D). *)
  let stations = [| Station.queueing ~servers:64 ~demand:2. () |] in
  let s = Harness.amva_solve ~think_time:2. ~stations ~population:8 () in
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
      let bard =
        Harness.amva_solve ~approximation:Amva.Bard ~think_time:z ~stations ~population:n ()
      in
      bard.Solution.throughput <= exact.Solution.throughput +. 1e-6)

(* --- non-finite think time ------------------------------------------------- *)

let test_amva_non_finite_think_time () =
  let stations = [| Station.queueing ~demand:1. () |] in
  let rejects think_time expected stations =
    match Amva.solve_status ~think_time ~stations ~population:3 () with
    | exception Invalid_argument msg -> Alcotest.(check string) "message" expected msg
    | _, status ->
      Alcotest.failf "think time %g accepted: %s" think_time (FP.status_to_string status)
  in
  rejects Float.nan "Amva: think time must be finite and >= 0, got nan" stations;
  rejects Float.infinity "Amva: think time must be finite and >= 0, got inf" stations;
  rejects (-1.) "Amva: think time must be finite and >= 0, got -1" stations;
  (* Collected with the station problems, in input order. *)
  rejects Float.nan
    "Amva: think time must be finite and >= 0, got nan; station 1: station demand must be \
     finite and >= 0, got inf"
    [|
      Station.queueing ~demand:1. ();
      ({ Station.kind = Delay; demand = Float.infinity; scv = 1.; servers = 1 }
      [@lint.allow
        "negative-cost" "a deliberately invalid station: the test checks that Amva rejects it"]);
    |]

let test_exact_non_finite_think_time () =
  let stations = [| Station.queueing ~demand:1. () |] in
  List.iter
    (fun think_time ->
      match Exact.solve ~think_time ~stations ~population:3 () with
      | exception Invalid_argument msg ->
        Alcotest.(check string) "message" "Exact_mva: think time must be finite and >= 0" msg
      | s ->
        Alcotest.failf "think time %g accepted: X = %g, R = %g" think_time s.Solution.throughput
          s.Solution.cycle_time)
    [ Float.nan; Float.infinity; Float.neg_infinity; -1. ]

(* --- the bracketed solve on random networks -------------------------------- *)

(* Closed networks of 1–6 stations, one in five a Delay station, the
   others Queueing with C² in [0, 3] and 1–3 servers; demands in
   [0.1, 100], populations 1–500, think times in [0, 1000], Bard or
   Schweitzer. *)
let amva_case_gen =
  QCheck.Gen.(
    let station =
      let* demand = float_range 0.1 100. in
      let* delay = frequencyl [ (1, true); (4, false) ] in
      if delay then return (Harness.delay_station ~demand)
      else
        let* scv = float_range 0. 3. in
        let* servers = int_range 1 3 in
        return (Station.queueing ~scv ~servers ~demand ())
    in
    let* stations = array_size (int_range 1 6) station in
    let* approximation = oneofl [ Amva.Bard; Amva.Schweitzer ] in
    let* think_time = float_range 0. 1000. in
    let* population = int_range 1 500 in
    return (stations, approximation, think_time, population))

let print_amva_case (stations, approximation, think_time, population) =
  Printf.sprintf "%s think=%h N=%d [%s]"
    (match approximation with Amva.Bard -> "bard" | Schweitzer -> "schweitzer")
    think_time population
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (s : Station.t) ->
               Printf.sprintf "%s d=%h scv=%h c=%d"
                 (match s.kind with Station.Delay -> "delay" | Queueing -> "queue")
                 s.demand s.scv s.servers)
             stations)))

(* The AMVA map F(R) = Z + Σ_k R_k(N/R), each R_k in closed form from
   R_k = D(c−1)/c + D'·(1 + f·X·R_k + (C²−1)/2·X·D'), D' = D/c. *)
let amva_map ~approximation ~think_time ~stations ~population r =
  let n = Float.of_int population in
  let f = match approximation with Amva.Bard -> 1. | Schweitzer -> (n -. 1.) /. n in
  let x = n /. r in
  Array.fold_left
    (fun acc (s : Station.t) ->
      match s.kind with
      | Station.Delay -> acc +. s.demand
      | Station.Queueing ->
        let c = Float.of_int s.servers in
        let d = s.demand /. c in
        acc
        +. ((s.demand *. (c -. 1.) /. c) +. (d *. (1. +. ((s.scv -. 1.) /. 2. *. x *. d))))
           /. (1. -. (f *. x *. d))
           [@lint.allow
             "unguarded-division division-by-vanishing"
               "evaluated at a converged cycle time, where every f·X·D' < 1"])
    think_time stations

let prop_amva_bracketed_solve =
  QCheck.Test.make ~name:"amva: bracketed solve converges on random nets" ~count:2000
    (QCheck.make ~print:print_amva_case amva_case_gen)
    (fun (stations, approximation, think_time, population) ->
      let close x y = Float.abs (x -. y) <= 1e-9 *. Float.abs y in
      match Amva.solve_status ~approximation ~think_time ~stations ~population () with
      | Some s, FP.Converged _ ->
        let r = Float.of_int population /. s.throughput in
        let fr = amva_map ~approximation ~think_time ~stations ~population r in
        if Float.abs (fr -. r) > 1e-9 *. r then
          QCheck.Test.fail_reportf "|F(R) - R| = %g at R = %.17g" (Float.abs (fr -. r)) r;
        (match
           Harness.amva_reference_solve_status ~approximation ~think_time ~stations ~population ()
         with
        | Some reference, FP.Converged _ when not (close s.throughput reference.throughput) ->
          QCheck.Test.fail_reportf "X = %.17g, damped reference %.17g" s.throughput
            reference.throughput
        | _ -> ());
        (* One customer under Schweitzer sees an empty network, as exact
           MVA says, when service is exponential on one server. *)
        let single =
          Array.map (fun (st : Station.t) -> { st with scv = 1.; servers = 1 }) stations
        in
        let exact = (Exact.solve ~think_time ~stations:single ~population:1 ()).throughput in
        (match
           Amva.solve_status ~approximation:Amva.Schweitzer ~think_time ~stations:single
             ~population:1 ()
         with
        | Some one, FP.Converged _ when close one.throughput exact -> ()
        | Some one, _ ->
          QCheck.Test.fail_reportf "N = 1: X = %.17g, exact %.17g" one.throughput exact
        | None, status -> QCheck.Test.fail_reportf "N = 1: %s" (FP.status_to_string status));
        true
      | _, status -> QCheck.Test.fail_reportf "%s" (FP.status_to_string status))

let test_amva_classes_budget () =
  (* Fuel buys evaluations of the cycle-time map: three stop the search
     after three, and the fuel a solve reports is enough to finish it. *)
  let stations =
    [| Station.queueing ~demand:2. (); Harness.delay_station ~demand:1.; Station.queueing ~demand:2. () |]
  in
  let solve fuel =
    Amva.solve_status ~budget:(Lopc_robust.Budget.create ~fuel ()) ~stations ~population:40 ()
  in
  (match solve 3 with
  | None, FP.Exhausted { iters = 3; _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion after 3, got %s" (FP.status_to_string status));
  match Amva.solve_status ~stations ~population:40 () with
  | Some s, FP.Converged { iters } -> (
    match solve iters with
    | Some b, FP.Converged { iters = i } when i = iters ->
      feq 0. "same X under the budget" s.throughput b.throughput
    | _, status -> Alcotest.failf "fuel %d: %s" iters (FP.status_to_string status))
  | _, status -> Alcotest.failf "expected convergence, got %s" (FP.status_to_string status)

(* Populations up to 10⁹, demands and think times from 1e-300 to 1e300,
   all-delay networks: every call converges with a finite answer or
   raises [Invalid_argument]; none diverges, and no other exception
   escapes. *)
let test_amva_hostile_inputs () =
  let shapes d =
    [
      [| Station.queueing ~demand:d () |];
      [| Station.queueing ~scv:0. ~demand:d () |];
      [| Station.queueing ~demand:d (); Station.queueing ~scv:3. ~servers:2 ~demand:1. () |];
      [| Station.queueing ~scv:0. ~servers:3 ~demand:d (); Harness.delay_station ~demand:1. |];
      [| Harness.delay_station ~demand:d; Harness.delay_station ~demand:1. |];
      [| Harness.delay_station ~demand:d |];
    ]
  in
  let scales = [ 1e-300; 1e-150; 1e-10; 1.; 1e10; 1e150; 1e300 ] in
  List.iter
    (fun d ->
      List.iter
        (fun stations ->
          List.iter
            (fun think_time ->
              List.iter
                (fun population ->
                  List.iter
                    (fun approximation ->
                      match
                        Amva.solve_status ~approximation ~think_time ~stations ~population ()
                      with
                      | exception Invalid_argument _ -> ()
                      | Some s, FP.Converged _
                        when Float.is_finite s.throughput && Float.is_finite s.cycle_time -> ()
                      | _, status ->
                        Alcotest.failf "d = %g, Z = %g, N = %d: %s" d think_time population
                          (FP.status_to_string status))
                    [ Amva.Bard; Amva.Schweitzer ])
                [ 1; 2; 1000; 1_000_000_000 ])
            (0. :: scales))
        (shapes d))
    scales

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
    Alcotest.test_case "amva: non-finite think time rejected" `Quick
      test_amva_non_finite_think_time;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 7) prop_amva_bracketed_solve;
    Alcotest.test_case "amva: class solve under a budget" `Quick test_amva_classes_budget;
    Alcotest.test_case "exact: non-finite think time rejected" `Quick
      test_exact_non_finite_think_time;
    Alcotest.test_case "amva: hostile inputs converge or are rejected" `Quick
      test_amva_hostile_inputs;
  ]
