(* Tests for the LoPC core model: parameters, LogP baseline, all-to-all
   solutions and bounds, client-server optimum, the general model. *)

module Params = Lopc.Params
module Logp = Lopc.Logp
module A = Lopc.All_to_all
module CS = Lopc.Client_server
module G = Lopc.General
module Polynomial = Lopc_numerics.Polynomial

let feq tol = Alcotest.(check (float tol))

let params ?(c2 = 0.) ?(p = 32) ?(st = 40.) ?(so = 200.) () = Params.create ~c2 ~p ~st ~so ()

(* --- parameters --------------------------------------------------------- *)

let test_params_validation () =
  List.iter
    (fun thunk ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (thunk ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Params.create ~p:0 ~st:1. ~so:1. ());
      (fun () -> Params.create ~p:2 ~st:(-1.) ~so:1. ());
      (fun () -> Params.create ~p:2 ~st:1. ~so:0. ());
      (fun () -> Params.create ~c2:(-0.5) ~p:2 ~st:1. ~so:1. ());
    ]

(* LogP's (L, o, P) as LoPC parameters: St = L, So = o. *)
let of_logp ~l ~o ~p = Params.create ~p ~st:l ~so:o ()

let test_params_of_logp () =
  let t = of_logp ~l:10. ~o:5. ~p:16 in
  feq 0. "St = L" 10. t.Params.st;
  feq 0. "So = o" 5. t.Params.so;
  feq 0. "C2 default exponential" 1. t.Params.c2;
  Alcotest.(check int) "P" 16 t.Params.p


let test_algorithm_validation () =
  Alcotest.(check bool) "negative n rejected" true
    (try
       ignore (Params.algorithm ~n:(-1) ~w:1.);
       false
     with Invalid_argument _ -> true)

let test_table31_rows () =
  Alcotest.(check int) "five parameter rows" 5 (List.length Params.logp_correspondence)

(* --- LogP baseline ------------------------------------------------------- *)

let test_logp_cycle () =
  feq 0. "W + 2St + 2So" 1480. (Logp.cycle_time (params ()) ~w:1000.)

let test_logp_total () =
  let alg = Params.algorithm ~n:100 ~w:1000. in
  feq 0. "n cycles" 148_000. (Logp.total_runtime (params ()) alg)

let test_logp_workpile_bounds () =
  let p = params ~so:131. () in
  feq 1e-9 "server bound" (8. /. 131.) (Logp.server_bound p ~servers:8);
  feq 1e-9 "client bound" (24. /. (1000. +. 80. +. 262.)) (Logp.client_bound p ~w:1000. ~clients:24);
  let b = Logp.workpile_bound p ~w:1000. ~servers:8 ~clients:24 in
  Alcotest.(check bool) "min of the two" true
    (b <= Logp.server_bound p ~servers:8 && b <= Logp.client_bound p ~w:1000. ~clients:24)

(* --- all-to-all ---------------------------------------------------------- *)

let test_all_to_all_bounds_hold () =
  let p = params () in
  List.iter
    (fun w ->
      let s = A.solve p ~w in
      let lb = A.lower_bound p ~w and ub = A.upper_bound p ~w in
      if not (s.A.r > lb && s.A.r < ub) then
        Alcotest.failf "W=%g: R=%g outside (%g, %g)" w s.A.r lb ub)
    [ 0.; 2.; 10.; 100.; 500.; 1000.; 2048.; 10_000. ]

let test_rule_of_thumb_346 () =
  (* Eq 5.12: the C2=0 constant is 3.46. *)
  let k = A.rule_of_thumb_constant ~c2:0. in
  Alcotest.(check bool) "k in [3.4, 3.47]" true (k > 3.4 && k < 3.47)

let test_rule_of_thumb_grows_with_c2 () =
  let k0 = A.rule_of_thumb_constant ~c2:0. in
  let k1 = A.rule_of_thumb_constant ~c2:1. in
  let k2 = A.rule_of_thumb_constant ~c2:2. in
  Alcotest.(check bool) "monotone in C2" true (k0 < k1 && k1 < k2)

let test_contention_about_one_handler () =
  (* §5.3: "to a first approximation the cost of contention is equal to
     the cost of processing an extra message". *)
  let p = params () in
  List.iter
    (fun w ->
      let s = A.solve p ~w in
      let ratio = s.A.contention /. p.Params.so in
      if not (ratio > 0.5 && ratio < 1.5) then
        Alcotest.failf "W=%g: contention %g not ~ one handler (%g)" w s.A.contention
          p.Params.so)
    [ 100.; 500.; 1000.; 2048. ]

let test_solution_methods_agree () =
  let p = params ~c2:1. () in
  List.iter
    (fun w ->
      let b = (A.solve ~solve_method:A.Brent_on_residual p ~w).A.r in
      let i = (A.solve ~solve_method:A.Damped_iteration p ~w).A.r in
      let q = (A.solve ~solve_method:A.Polynomial_roots p ~w).A.r in
      feq 1e-4 "brent vs iteration" b i;
      feq 1e-4 "brent vs polynomial" b q)
    [ 0.; 100.; 1000. ]

let test_solution_is_fixed_point () =
  let p = params ~c2:0.5 () in
  let s = A.solve p ~w:750. in
  feq 1e-6 "F(R) = R" s.A.r (A.fixed_point_map p ~w:750. s.A.r)

let test_solution_internal_consistency () =
  let p = params ~c2:1. () in
  let s = A.solve p ~w:1000. in
  feq 1e-9 "R decomposes" s.A.r (s.A.rw +. (2. *. p.Params.st) +. s.A.rq +. s.A.ry);
  feq 1e-9 "Uq = So/R" (p.Params.so /. s.A.r) s.A.uq;
  feq 1e-9 "Qq = Rq/R (Little)" (s.A.rq /. s.A.r) s.A.qq;
  feq 1e-9 "Qy = Ry/R (Little)" (s.A.ry /. s.A.r) s.A.qy;
  feq 1e-9 "X = P/R" (32. /. s.A.r) s.A.throughput

let test_c2_gap_about_6_percent () =
  (* §5.2: difference between C2=0 and C2=1 predictions is about 6%
     (at W=1000 with the figure's handler range). *)
  let r0 = (A.solve (params ~c2:0. ~so:512. ()) ~w:1000.).A.r in
  let r1 = (A.solve (params ~c2:1. ~so:512. ()) ~w:1000.).A.r in
  let gap = (r1 -. r0) /. r0 in
  Alcotest.(check bool) "gap in (2%, 10%)" true (gap > 0.02 && gap < 0.10)

let test_protocol_processor_faster () =
  let p = params ~c2:1. () in
  let mp = A.solve p ~w:1000. in
  let pp = A.solve ~execution:A.Protocol_processor p ~w:1000. in
  Alcotest.(check bool) "PP removes thread interference" true (pp.A.r < mp.A.r);
  feq 1e-9 "PP Rw = W" 1000. pp.A.rw

let test_quartic_degree () =
  (* §5.3: the cleared system is a polynomial of low degree with the cycle
     time among its roots. *)
  let p = params ~c2:0. () in
  let poly = A.quartic p ~w:1000. in
  Alcotest.(check bool) "degree between 3 and 5" true
    (Harness.poly_degree poly >= 3 && Harness.poly_degree poly <= 5);
  let r = (A.solve p ~w:1000.).A.r in
  let scale = Polynomial.eval poly (1.5 *. r) in
  Alcotest.(check bool) "solution is a root" true
    (Float.abs (Polynomial.eval poly r) < 1e-6 *. Float.abs scale)

let test_contention_fraction_monotone_decreasing_in_w () =
  let p = params () in
  let f w = A.contention_fraction p ~w in
  Alcotest.(check bool) "more work, less contention share" true
    (f 10. > f 100. && f 100. > f 1000. && f 1000. > f 10_000.)

let test_total_runtime () =
  let p = params ~c2:1. () in
  let alg = Params.algorithm ~n:50 ~w:1000. in
  feq 1e-6 "n R" (50. *. (A.solve p ~w:1000.).A.r) (A.total_runtime p alg)

let test_logp_underestimates_lopc () =
  let p = params ~c2:1. () in
  List.iter
    (fun w ->
      Alcotest.(check bool) "LogP < LoPC" true
        (Logp.cycle_time p ~w < (A.solve p ~w).A.r))
    [ 0.; 100.; 1000. ]

let prop_bounds_hold_everywhere =
  QCheck.Test.make ~name:"Eq 5.12 bounds hold across parameter space" ~count:300
    QCheck.(
      quad (int_range 2 512) (float_range 0. 500.) (float_range 1. 2000.)
        (float_range 0. 4000.))
    (fun (p, st, so, w) ->
      let params = Params.create ~c2:0. ~p ~st ~so () in
      let s = A.solve params ~w in
      let lb = w +. (2. *. st) +. (2. *. so) in
      let ub = w +. (2. *. st) +. (3.47 *. so) in
      s.A.r >= lb -. 1e-6 && s.A.r <= ub +. 1e-6)

let prop_r_increases_with_w =
  QCheck.Test.make ~name:"cycle time monotone in W" ~count:100
    QCheck.(pair (float_range 0. 2000.) (float_range 0.1 500.))
    (fun (w, dw) ->
      let p = params ~c2:1. () in
      (A.solve p ~w:(w +. dw)).A.r > (A.solve p ~w).A.r)

let prop_methods_agree =
  QCheck.Test.make ~name:"all three solvers agree" ~count:100
    QCheck.(
      quad (int_range 2 128) (float_range 0. 200.) (float_range 10. 1000.)
        (float_range 0. 3000.))
    (fun (p, st, so, w) ->
      let params = Params.create ~c2:0. ~p ~st ~so () in
      let b = (A.solve ~solve_method:A.Brent_on_residual params ~w).A.r in
      let q = (A.solve ~solve_method:A.Polynomial_roots params ~w).A.r in
      Float.abs (b -. q) < 1e-3 *. b)

(* --- client-server ------------------------------------------------------- *)

let cs_params = Params.create ~c2:1. ~p:32 ~st:40. ~so:131. ()

(* Throughput for every server count 1..P-1: the brute-force reference
   Eq 6.8's optimum is checked against. *)
let cs_throughput_curve (params : Params.t) ~w =
  Array.init (params.p - 1) (fun i -> CS.throughput params ~w ~servers:(i + 1))

(* At the optimal server count the mean server queue is about one. *)
let cs_optimum_queue_is_one params ~w =
  let sol = CS.throughput params ~w ~servers:(CS.optimal_servers params ~w) in
  Float.abs (sol.CS.server_queue -. 1.) <= 0.5

let test_cs_rs_closed_form () =
  (* C2 = 1: Rs = 2 So. *)
  feq 1e-9 "Rs = 2So" 262. (CS.server_residence_at_optimum cs_params);
  (* C2 = 0: Rs = So (1 + sqrt(1/2)). *)
  let p0 = Params.create ~c2:0. ~p:32 ~st:40. ~so:131. () in
  feq 1e-9 "Rs C2=0" (131. *. (1. +. sqrt 0.5)) (CS.server_residence_at_optimum p0)

let test_cs_optimum_matches_curve_argmax () =
  List.iter
    (fun w ->
      let curve = cs_throughput_curve cs_params ~w in
      let best = ref 0 in
      Array.iteri
        (fun i (s : CS.solution) ->
          if s.CS.throughput > curve.(!best).CS.throughput then best := i)
        curve;
      let argmax = curve.(!best).CS.servers in
      let predicted = CS.optimal_servers cs_params ~w in
      if abs (argmax - predicted) > 1 then
        Alcotest.failf "W=%g: curve argmax %d vs Eq 6.8 %d" w argmax predicted)
    [ 200.; 500.; 1000.; 2000.; 4000. ]

let test_cs_queue_is_one_at_optimum () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "Qs ~ 1 at optimum (W=%g)" w)
        true
        (cs_optimum_queue_is_one cs_params ~w))
    [ 500.; 1000.; 2000. ]

let test_cs_below_logp_bounds () =
  (* The model's throughput must respect the optimistic LogP bounds. *)
  Array.iter
    (fun (s : CS.solution) ->
      let bound =
        Logp.workpile_bound cs_params ~w:1000. ~servers:s.CS.servers ~clients:s.CS.clients
      in
      if s.CS.throughput > bound +. 1e-9 then
        Alcotest.failf "Ps=%d: X=%g exceeds LogP bound %g" s.CS.servers s.CS.throughput
          bound)
    (cs_throughput_curve cs_params ~w:1000.)

let test_cs_invalid () =
  Alcotest.(check bool) "servers out of range" true
    (try
       ignore (CS.throughput cs_params ~w:10. ~servers:32);
       false
     with Invalid_argument _ -> true)

let test_cs_utilization_below_one () =
  Array.iter
    (fun (s : CS.solution) ->
      if s.CS.server_util >= 1. then
        Alcotest.failf "Ps=%d: utilization %g >= 1" s.CS.servers s.CS.server_util)
    (cs_throughput_curve cs_params ~w:200.)

let prop_cs_optimum_interior =
  QCheck.Test.make ~name:"Eq 6.8 optimum lies strictly inside (0, P)" ~count:200
    QCheck.(
      quad (int_range 4 256) (float_range 0. 200.) (float_range 10. 500.)
        (float_range 0. 5000.))
    (fun (p, st, so, w) ->
      let params = Params.create ~c2:1. ~p ~st ~so () in
      let ps = CS.optimal_servers_real params ~w in
      ps > 0. && ps < Float.of_int p)

(* --- execution modes ------------------------------------------------------ *)

let test_polling_rw_is_w () =
  let p = params ~c2:1. () in
  let s = A.solve ~execution:A.Polling p ~w:500. in
  feq 1e-9 "Rw = W" 500. s.A.rw

let test_polling_crossover () =
  (* Polling beats interrupts at fine grain and loses at coarse grain. *)
  let p = params ~c2:1. () in
  let diff w =
    (A.solve ~execution:A.Polling p ~w).A.r -. (A.solve p ~w).A.r
  in
  Alcotest.(check bool) "polling wins at W=0" true (diff 0. < 0.);
  Alcotest.(check bool) "interrupts win at W=2000" true (diff 2000. > 0.)

let test_pp_dominates_both () =
  let p = params ~c2:1. () in
  List.iter
    (fun w ->
      let pp = (A.solve ~execution:A.Protocol_processor p ~w).A.r in
      Alcotest.(check bool) "pp <= interrupt" true (pp <= (A.solve p ~w).A.r +. 1e-9);
      Alcotest.(check bool) "pp <= polling" true
        (pp <= (A.solve ~execution:A.Polling p ~w).A.r +. 1e-9))
    [ 0.; 200.; 1000.; 4000. ]

let test_polling_residual_wait () =
  (* A request handler first waits out the thread's residual work quantum:
     probability Uw = W/R, mean W for exponential work, so Rq gains
     Uw·W over the interrupt-mode queueing equation; a reply handler finds
     its thread blocked and never waits. *)
  let p = params ~c2:0. () in
  let w = 1000. in
  let s = A.solve ~execution:A.Polling p ~w in
  let so = p.Params.so in
  let beta = (p.Params.c2 -. 1.) /. 2. in
  let sq = so /. s.A.r in
  feq 1e-6 "Rq = So(1 + Qq + Qy + 2βs) + Uw·W"
    ((so *. (1. +. s.A.qq +. s.A.qy +. (2. *. beta *. sq))) +. (w /. s.A.r *. w))
    s.A.rq;
  feq 1e-6 "Ry = So(1 + Qq + βs)" (so *. (1. +. s.A.qq +. (beta *. sq))) s.A.ry;
  feq 1e-6 "F(R) = R" s.A.r (A.fixed_point_map ~execution:A.Polling p ~w s.A.r)

let test_polling_methods_agree () =
  let p = params ~c2:1. () in
  List.iter
    (fun w ->
      let r solve_method = (A.solve ~execution:A.Polling ~solve_method p ~w).A.r in
      let b = r A.Brent_on_residual in
      feq 1e-4 "brent vs iteration" b (r A.Damped_iteration);
      feq 1e-4 "brent vs polynomial" b (r A.Polynomial_roots))
    [ 0.; 100.; 1000. ]

(* --- calibration ------------------------------------------------------------ *)

module Cal = Lopc.Calibrate

let synthetic_observations ~p ~st ~so ws =
  let params = Params.create ~c2:1. ~p ~st ~so () in
  List.map (fun w -> (w, (A.solve params ~w).A.r)) ws

let test_calibrate_recovers_curve () =
  (* On noiseless model-generated data the unconstrained fit reproduces
     the curve essentially exactly. *)
  let observations = synthetic_observations ~p:32 ~st:40. ~so:200. [ 50.; 400.; 3200. ] in
  let f = Cal.fit ~p:32 ~observations () in
  Alcotest.(check bool) "tiny residual" true (f.Cal.relative_residual < 1e-4);
  List.iter
    (fun (_, measured, fitted) ->
      Alcotest.(check bool) "pointwise" true
        (Float.abs (fitted -. measured) /. measured < 1e-3))
    (Cal.predictions f ~observations)

let test_calibrate_pinned_st_identifies_so () =
  let observations =
    synthetic_observations ~p:32 ~st:40. ~so:200. [ 20.; 100.; 500.; 2500. ]
  in
  let f = Cal.fit ~fixed_st:40. ~p:32 ~observations () in
  feq 1. "So recovered" 200. f.Cal.params.Params.so;
  feq 0. "St pinned" 40. f.Cal.params.Params.st

let test_calibrate_validation () =
  Alcotest.(check bool) "one observation rejected" true
    (try
       ignore (Cal.fit ~p:4 ~observations:[ (1., 10.) ] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative time rejected" true
    (try
       ignore (Cal.fit ~p:4 ~observations:[ (1., 10.); (2., -1.) ] ());
       false
     with Invalid_argument _ -> true)

(* --- scaling guidance ------------------------------------------------------ *)

(* Grain-size and strong-scaling readings of the all-to-all model:
   efficiency W/R, and the speedup of a [total_work] job split into
   [requests] rounds per node, total_work / (n·R(W)) with
   W = total_work/(P·n). *)
module Sc = struct
  let efficiency (params : Params.t) ~w =
    if Float.equal w 0. then 0. else w /. (A.solve params ~w).A.r

  (* The smallest W whose efficiency reaches [target]: efficiency is 0 at
     W = 0 and rises monotonically towards 1, so bracket upward. *)
  let min_work_for_efficiency params ~target =
    Lopc_numerics.Roots.brent_above ~f:(fun w -> efficiency params ~w -. target) 1e-6

  let speedup (params : Params.t) ~total_work ~requests =
    let n = Float.of_int requests in
    let w = total_work /. (Float.of_int params.p *. n) in
    total_work /. (n *. (A.solve params ~w).A.r)
end

let test_efficiency_bounds () =
  let p = params ~c2:1. () in
  List.iter
    (fun w ->
      let e = Sc.efficiency p ~w in
      Alcotest.(check bool) "in [0,1)" true (e >= 0. && e < 1.))
    [ 0.; 10.; 1000.; 100_000. ]

let test_efficiency_monotone () =
  let p = params ~c2:1. () in
  Alcotest.(check bool) "coarser grain, better efficiency" true
    (Sc.efficiency p ~w:100. < Sc.efficiency p ~w:1000.
    && Sc.efficiency p ~w:1000. < Sc.efficiency p ~w:10_000.)

let test_min_work_inverts_efficiency () =
  let p = params ~c2:1. () in
  List.iter
    (fun target ->
      let w = Sc.min_work_for_efficiency p ~target in
      feq 1e-4 "efficiency at threshold" target (Sc.efficiency p ~w))
    [ 0.25; 0.5; 0.8; 0.95 ]


let test_speedup_sublinear () =
  (* Strong scaling: speedup grows with P but sublinearly once grains get
     fine. *)
  let mk p = Params.create ~c2:1. ~p ~st:40. ~so:200. () in
  let total_work = 1.0e7 and requests = 100 in
  let s8 = Sc.speedup (mk 8) ~total_work ~requests in
  let s64 = Sc.speedup (mk 64) ~total_work ~requests in
  Alcotest.(check bool) "more P, more speedup" true (s64 > s8);
  Alcotest.(check bool) "below linear" true (s64 < 64.);
  Alcotest.(check bool) "s8 below 8" true (s8 < 8.)

let test_speedup_curve_shape () =
  let curve =
    List.map
      (fun p ->
        (p, Sc.speedup (Params.create ~p ~st:40. ~so:200. ()) ~total_work:1.0e6 ~requests:50))
      [ 2; 8; 32; 128 ]
  in
  Alcotest.(check int) "four points" 4 (List.length curve);
  List.iter
    (fun (p, s) -> Alcotest.(check bool) "positive, sublinear" true (s > 0. && s <= Float.of_int p))
    curve

(* --- gap extension --------------------------------------------------------- *)

module Gp = Lopc.Gap

let test_gap_zero_recovers_base () =
  let p = params ~c2:1. () in
  let s = Gp.solve ~gap:0. p ~w:1000. in
  feq 1e-9 "same as base model" (A.solve p ~w:1000.).A.r s.Gp.r;
  feq 0. "penalty 0" 0. s.Gp.penalty

let test_gap_monotone () =
  let p = params ~c2:1. () in
  let r g = (Gp.solve ~gap:g p ~w:1000.).Gp.r in
  Alcotest.(check bool) "cycle grows with g" true (r 0. < r 10. && r 10. < r 100. && r 100. < r 400.)

let test_gap_lower_bound_respected () =
  let p = params ~c2:1. () in
  List.iter
    (fun g ->
      let s = Gp.solve ~gap:g p ~w:500. in
      Alcotest.(check bool) "above NI-aware contention-free cost" true
        (s.Gp.r >= Gp.lower_bound ~gap:g p ~w:500.))
    [ 0.; 20.; 100.; 300. ]

let test_tolerable_gap () =
  let p = params ~c2:1. () in
  let g = Gp.tolerable_gap p ~w:1000. in
  Alcotest.(check bool) "positive" true (g > 0.);
  (* At the threshold the penalty is exactly the target. *)
  let s = Gp.solve ~gap:g p ~w:1000. in
  Alcotest.(check bool) "penalty ~ 5%" true (Float.abs (s.Gp.penalty -. 0.05) < 1e-3);
  (* A small gap really is irrelevant — the paper's claim. *)
  Alcotest.(check bool) "g = 2 cycles is harmless" true
    ((Gp.solve ~gap:2. p ~w:1000.).Gp.penalty < 0.01)

let test_gap_validation () =
  let p = params () in
  Alcotest.(check bool) "negative gap rejected" true
    (try
       ignore (Gp.solve ~gap:(-1.) p ~w:1.);
       false
     with Invalid_argument _ -> true)

(* --- windowed (non-blocking) extension ----------------------------------- *)

module W = Lopc.Windowed

let test_windowed_one_matches_blocking () =
  let p = params ~c2:1. () in
  List.iter
    (fun w ->
      let blocking = (A.solve p ~w).A.r in
      let windowed = (W.solve ~window:1 p ~w).W.r in
      feq (1e-6 *. blocking) "same R" blocking windowed)
    [ 0.; 100.; 1000. ]

let test_windowed_monotone_rate () =
  let p = params ~c2:1. () in
  let rate k = (W.solve ~window:k p ~w:1000.).W.node_rate in
  let rec check k = if k > 8 then () else begin
    Alcotest.(check bool) "nondecreasing" true (rate k >= rate (k - 1) -. 1e-12);
    check (k + 1)
  end in
  check 2

let test_windowed_respects_saturation () =
  let p = params ~c2:1. () in
  let ceiling = W.saturation_rate p ~w:1000. in
  List.iter
    (fun k ->
      let s = W.solve ~window:k p ~w:1000. in
      Alcotest.(check bool) "below ceiling" true (s.W.node_rate <= ceiling +. 1e-12);
      Alcotest.(check bool) "util <= 1" true (s.W.processor_util <= 1. +. 1e-9))
    [ 1; 2; 4; 8; 16 ]

let test_windowed_speedup_curve () =
  let p = params ~c2:1. () in
  let rate k = (W.solve ~window:k p ~w:1000.).W.node_rate in
  let curve = Array.init 6 (fun i -> (i + 1, rate (i + 1) /. rate 1)) in
  Alcotest.(check int) "six points" 6 (Array.length curve);
  let _, s1 = curve.(0) in
  feq 1e-12 "speedup(1) = 1" 1. s1;
  Array.iter (fun (_, s) -> Alcotest.(check bool) "speedup >= 1" true (s >= 1. -. 1e-12)) curve

let test_windowed_validation () =
  let p = params () in
  Alcotest.(check bool) "window 0 rejected" true
    (try
       ignore (W.solve ~window:0 p ~w:1.);
       false
     with Invalid_argument _ -> true)

let prop_windowed_bounded =
  QCheck.Test.make ~name:"windowed rate in (0, saturation], util <= 1" ~count:150
    QCheck.(
      quad (int_range 1 12) (float_range 0. 200.) (float_range 10. 800.)
        (float_range 1. 4000.))
    (fun (window, st, so, w) ->
      let p = Params.create ~c2:1. ~p:16 ~st ~so () in
      let s = W.solve ~window p ~w in
      s.W.node_rate > 0.
      && s.W.node_rate <= W.saturation_rate p ~w +. 1e-12
      && s.W.processor_util <= 1. +. 1e-9)

let test_cs_threaded_servers () =
  (* Extra server threads help exactly where servers are the bottleneck. *)
  let x threads servers =
    (CS.throughput ~threads_per_server:threads cs_params ~w:1000. ~servers).CS.throughput
  in
  Alcotest.(check bool) "helps at Ps=1" true (x 2 1 > x 1 1 *. 1.2);
  (* Where clients are the bottleneck the gain is negligible. *)
  Alcotest.(check bool) "irrelevant at Ps=16" true (x 2 16 < x 1 16 *. 1.02);
  Alcotest.(check bool) "monotone" true (x 4 2 >= x 2 2 && x 2 2 >= x 1 2)

(* --- general (Appendix A) ------------------------------------------------ *)

let test_general_reduces_to_all_to_all () =
  let p = params ~c2:0. () in
  let direct = A.solve p ~w:1000. in
  let g = G.solve (Harness.general_all_to_all p ~w:1000.) in
  feq 1e-6 "same cycle time" direct.A.r g.G.cycle_times.(0);
  feq 1e-6 "same throughput" direct.A.throughput g.G.system_throughput;
  feq 1e-6 "same Qq" direct.A.qq g.G.node_solutions.(0).G.qq

let test_general_reduces_to_client_server () =
  let cs = CS.throughput cs_params ~w:1000. ~servers:5 in
  let g = G.solve (Harness.general_client_server cs_params ~w:1000. ~servers:5) in
  feq 1e-5 "same throughput" cs.CS.throughput g.G.system_throughput

let test_general_multi_hop_slower () =
  let p = params ~c2:1. () in
  let mk hops =
    {
      G.params = p;
      protocol_processor = false;
      nodes =
        Array.init 32 (fun c ->
            {
              G.work = Some 1000.;
              visits =
                Array.init 32 (fun k ->
                    if k = c then 0. else Float.of_int hops /. 31.);
            });
    }
  in
  let r1 = (G.solve (mk 1)).G.cycle_times.(0) in
  let r2 = (G.solve (mk 2)).G.cycle_times.(0) in
  let r3 = (G.solve (mk 3)).G.cycle_times.(0) in
  Alcotest.(check bool) "hops increase cycle time" true (r1 < r2 && r2 < r3);
  (* Each extra hop adds at least St + So. *)
  Alcotest.(check bool) "at least contention-free increment" true
    (r2 -. r1 >= p.Params.st +. p.Params.so)

let test_general_asymmetric_work () =
  (* Node 0 does double work: its cycle must be the longest. *)
  let p = params ~c2:1. ~p:8 () in
  let v = 1. /. 7. in
  let net =
    {
      G.params = p;
      protocol_processor = false;
      nodes =
        Array.init 8 (fun c ->
            {
              G.work = Some (if c = 0 then 2000. else 1000.);
              visits = Array.init 8 (fun k -> if k = c then 0. else v);
            });
    }
  in
  let s = G.solve net in
  for c = 1 to 7 do
    Alcotest.(check bool) "node 0 slowest" true (s.G.cycle_times.(0) > s.G.cycle_times.(c))
  done

let test_general_hotspot_contended () =
  (* The hot node must show the largest request queue. *)
  let p = params ~c2:1. ~p:8 () in
  let net = Lopc_workloads.Pattern.to_general p ~w:500. (Lopc_workloads.Pattern.Hotspot { hot = 0; fraction = 0.5 }) in
  let s = G.solve net in
  for k = 1 to 7 do
    Alcotest.(check bool) "hot node has longest queue" true
      (s.G.node_solutions.(0).G.qq > s.G.node_solutions.(k).G.qq)
  done

let test_general_validation () =
  let p = params ~p:2 () in
  let bad =
    { G.params = p; protocol_processor = false;
      nodes = [| { G.work = None; visits = [| 0.; 0. |] };
                 { G.work = None; visits = [| 0.; 0. |] } |] }
  in
  (match G.validate bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "threadless network accepted");
  let mismatched =
    { G.params = p; protocol_processor = false;
      nodes = [| { G.work = Some 1.; visits = [| 0.; 1.; 0. |] };
                 { G.work = None; visits = [| 0.; 0. |] } |] }
  in
  match G.validate mismatched with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ragged visit matrix accepted"

let test_general_servers_have_nan_cycles () =
  let s = G.solve (Harness.general_client_server cs_params ~w:1000. ~servers:3) in
  Alcotest.(check bool) "server cycle time undefined" true (Float.is_nan s.G.cycle_times.(0));
  feq 0. "server throughput zero" 0. s.G.throughputs.(0)

let prop_general_homogeneous_matches =
  QCheck.Test.make ~name:"Appendix A reduces to section 5 on homogeneous input" ~count:60
    QCheck.(
      quad (int_range 2 64) (float_range 0. 100.) (float_range 10. 500.)
        (float_range 0. 2000.))
    (fun (p, st, so, w) ->
      let params = Params.create ~c2:1. ~p ~st ~so () in
      let direct = (A.solve params ~w).A.r in
      let general = (G.solve (Harness.general_all_to_all params ~w)).G.cycle_times.(0) in
      Float.abs (direct -. general) < 1e-4 *. direct)

(* --- shared node equations and input check --------------------------------- *)

module Contention = Lopc.Contention

let rel_close = Harness.rel_close

(* a is drawn as a fraction t of its ceiling 0.95 / (1 + b), so the kernel's
   denominator 1 - a - a*b stays at or above 0.05. *)
let prop_queues_solve_bard =
  QCheck.Test.make ~name:"Contention.queues solves the Bard equations" ~count:500
    QCheck.(
      quad (float_range 0. 1.) (float_range 0. 2.) (float_range (-0.5) 1.)
        (float_range 0. 5.))
    (fun (t, b, beta, e) ->
      let a = t *. 0.95 /. (1. +. b) in
      let qq, qy = Contention.queues ~beta ~extra:e a b in
      rel_close 1e-9 qq ((a *. (1. +. qq +. qy +. (beta *. (a +. b)))) +. e)
      && rel_close 1e-9 qy (b *. (1. +. qq +. (beta *. a))))

(* At a = b = s the kernel is the symmetric closed form of all_to_all.mli. *)
let prop_queues_symmetric =
  QCheck.Test.make ~name:"Contention.queues at a = b is the section 5 closed form"
    ~count:500
    QCheck.(pair (float_range 0. 0.59) (float_range (-0.5) 1.))
    (fun (s, beta) ->
      let qq, qy = Contention.queues ~beta ~extra:0. s s in
      let denom = 1. -. s -. (s *. s) in
      if denom <= 0. then false
      else begin
        let closed = s *. (1. +. ((1. +. (2. *. beta)) *. s) +. (beta *. s *. s)) /. denom in
        rel_close 1e-12 qq closed && rel_close 1e-12 qy (s *. (1. +. closed +. (beta *. s)))
      end)

(* Every entry point that runs [Params.check] keeps its own message. *)
let test_params_check_messages () =
  let good = Params.create ~c2:1. ~p:16 ~st:40. ~so:200. () in
  let zero_so = { good with Params.so = 0. } in
  let topology = Lopc_topology.Topology.create ~nodes:16 ~per_hop:1. ~link_time:1. () in
  let fault = Lopc.Fault_model.config ~drop:0.01 ~timeout:20000. () in
  let entry_points =
    [
      ("All_to_all", fun params ~w -> ignore (A.solve params ~w));
      ("Fault_model", fun params ~w -> ignore (Lopc.Fault_model.solve fault params ~w));
      ("Gap", fun params ~w -> ignore (Gp.solve ~gap:1. params ~w));
      ("Torus", fun params ~w -> ignore (Lopc.Torus.solve params ~topology ~w));
      ("Windowed", fun params ~w -> ignore (W.solve ~window:2 params ~w));
      ("Windowed", fun params ~w -> ignore (W.saturation_rate params ~w));
      ("Client_server", fun params ~w -> ignore (CS.throughput params ~w ~servers:4));
    ]
  in
  List.iter
    (fun (who, run) ->
      List.iter
        (fun w ->
          Alcotest.check_raises
            (Printf.sprintf "%s w=%g" who w)
            (Invalid_argument (who ^ ": invalid work value"))
            (fun () -> run good ~w))
        [ -1.; Float.nan; Float.infinity ];
      Alcotest.check_raises (who ^ " So=0")
        (Invalid_argument (who ^ ": So must be finite and > 0, got 0"))
        (fun () -> run zero_so ~w:1000.))
    entry_points

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "params from LogP" `Quick test_params_of_logp;
    Alcotest.test_case "algorithm validation" `Quick test_algorithm_validation;
    Alcotest.test_case "table 3.1 rows" `Quick test_table31_rows;
    Alcotest.test_case "logp cycle time" `Quick test_logp_cycle;
    Alcotest.test_case "logp total runtime" `Quick test_logp_total;
    Alcotest.test_case "logp workpile bounds" `Quick test_logp_workpile_bounds;
    Alcotest.test_case "all-to-all: Eq 5.12 bounds" `Quick test_all_to_all_bounds_hold;
    Alcotest.test_case "all-to-all: 3.46 constant" `Quick test_rule_of_thumb_346;
    Alcotest.test_case "all-to-all: constant grows with C2" `Quick test_rule_of_thumb_grows_with_c2;
    Alcotest.test_case "all-to-all: contention ~ one handler" `Quick test_contention_about_one_handler;
    Alcotest.test_case "all-to-all: methods agree" `Quick test_solution_methods_agree;
    Alcotest.test_case "all-to-all: solution is a fixed point" `Quick test_solution_is_fixed_point;
    Alcotest.test_case "all-to-all: internal identities" `Quick test_solution_internal_consistency;
    Alcotest.test_case "all-to-all: C2 gap ~6%" `Quick test_c2_gap_about_6_percent;
    Alcotest.test_case "all-to-all: protocol processor" `Quick test_protocol_processor_faster;
    Alcotest.test_case "all-to-all: quartic of section 5.3" `Quick test_quartic_degree;
    Alcotest.test_case "all-to-all: contention fraction vs W" `Quick test_contention_fraction_monotone_decreasing_in_w;
    Alcotest.test_case "all-to-all: total runtime" `Quick test_total_runtime;
    Alcotest.test_case "all-to-all: dominates LogP" `Quick test_logp_underestimates_lopc;
    QCheck_alcotest.to_alcotest prop_bounds_hold_everywhere;
    QCheck_alcotest.to_alcotest prop_r_increases_with_w;
    QCheck_alcotest.to_alcotest prop_methods_agree;
    Alcotest.test_case "client-server: Rs closed form" `Quick test_cs_rs_closed_form;
    Alcotest.test_case "client-server: Eq 6.8 matches argmax" `Quick test_cs_optimum_matches_curve_argmax;
    Alcotest.test_case "client-server: Qs = 1 at optimum" `Quick test_cs_queue_is_one_at_optimum;
    Alcotest.test_case "client-server: below LogP bounds" `Quick test_cs_below_logp_bounds;
    Alcotest.test_case "client-server: invalid input" `Quick test_cs_invalid;
    Alcotest.test_case "client-server: stable utilization" `Quick test_cs_utilization_below_one;
    QCheck_alcotest.to_alcotest prop_cs_optimum_interior;
    Alcotest.test_case "polling: Rw = W" `Quick test_polling_rw_is_w;
    Alcotest.test_case "polling: crossover vs interrupts" `Quick test_polling_crossover;
    Alcotest.test_case "protocol processor dominates" `Quick test_pp_dominates_both;
    Alcotest.test_case "polling: residual quantum wait" `Quick test_polling_residual_wait;
    Alcotest.test_case "polling: methods agree" `Quick test_polling_methods_agree;
    Alcotest.test_case "calibrate: recovers curve" `Quick test_calibrate_recovers_curve;
    Alcotest.test_case "calibrate: pinned St identifies So" `Quick test_calibrate_pinned_st_identifies_so;
    Alcotest.test_case "calibrate: validation" `Quick test_calibrate_validation;
    Alcotest.test_case "scaling: efficiency bounds" `Quick test_efficiency_bounds;
    Alcotest.test_case "scaling: efficiency monotone" `Quick test_efficiency_monotone;
    Alcotest.test_case "scaling: min work inverts" `Quick test_min_work_inverts_efficiency;
    Alcotest.test_case "scaling: strong scaling sublinear" `Quick test_speedup_sublinear;
    Alcotest.test_case "scaling: speedup curve" `Quick test_speedup_curve_shape;
    Alcotest.test_case "gap: zero recovers base" `Quick test_gap_zero_recovers_base;
    Alcotest.test_case "gap: monotone" `Quick test_gap_monotone;
    Alcotest.test_case "gap: lower bound" `Quick test_gap_lower_bound_respected;
    Alcotest.test_case "gap: tolerable threshold" `Quick test_tolerable_gap;
    Alcotest.test_case "gap: validation" `Quick test_gap_validation;
    Alcotest.test_case "windowed: window 1 = blocking" `Quick test_windowed_one_matches_blocking;
    Alcotest.test_case "windowed: rate monotone in window" `Quick test_windowed_monotone_rate;
    Alcotest.test_case "windowed: respects saturation" `Quick test_windowed_respects_saturation;
    Alcotest.test_case "windowed: speedup curve" `Quick test_windowed_speedup_curve;
    Alcotest.test_case "windowed: validation" `Quick test_windowed_validation;
    QCheck_alcotest.to_alcotest prop_windowed_bounded;
    Alcotest.test_case "client-server: threaded servers" `Quick test_cs_threaded_servers;
    Alcotest.test_case "general: reduces to all-to-all" `Quick test_general_reduces_to_all_to_all;
    Alcotest.test_case "general: reduces to client-server" `Quick test_general_reduces_to_client_server;
    Alcotest.test_case "general: multi-hop ordering" `Quick test_general_multi_hop_slower;
    Alcotest.test_case "general: asymmetric work" `Quick test_general_asymmetric_work;
    Alcotest.test_case "general: hotspot contention" `Quick test_general_hotspot_contended;
    Alcotest.test_case "general: validation" `Quick test_general_validation;
    Alcotest.test_case "general: pure servers" `Quick test_general_servers_have_nan_cycles;
    QCheck_alcotest.to_alcotest prop_general_homogeneous_matches;
    QCheck_alcotest.to_alcotest prop_queues_solve_bard;
    QCheck_alcotest.to_alcotest prop_queues_symmetric;
    Alcotest.test_case "params: one input check, own messages" `Quick test_params_check_messages;
  ]
