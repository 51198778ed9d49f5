(* The lumped general model (Appendix A over classes of interchangeable
   nodes) against the unlumped reference in Harness, its input check, its
   saturation diagnosis at large P and its algebraic laws. *)

module Params = Lopc.Params
module G = Lopc.General
module FP = Lopc_numerics.Fixed_point
module Pattern = Lopc_workloads.Pattern
module Rng = Lopc_prng.Rng

(* --- lumped vs dense ----------------------------------------------------------- *)

type shape =
  | Pattern of Pattern.t
  | Asymmetric of { seed : int }  (* a random visit matrix: every node its own class *)

let print_shape = function
  | Pattern pat -> Pattern.description pat
  | Asymmetric { seed } -> Printf.sprintf "asymmetric (seed %d)" seed

(* Each node runs a thread with probability 3/4 (node 0 always does) and
   visits each node with probability 1/2; a thread that drew no visit
   sends to node 0. *)
let asymmetric_net (params : Params.t) ~w ~protocol_processor ~seed =
  let rng = Rng.create seed in
  let p = params.p in
  let draw () = if Rng.bernoulli rng 0.5 then Rng.float_range rng 0. 2. else 0. in
  {
    G.params;
    protocol_processor;
    nodes =
      Array.init p (fun c ->
          if c > 0 && Rng.int_below rng 4 = 0 then { G.work = None; visits = Array.make p 0. }
          else
            let visits = Array.init p (fun _ -> draw ()) in
            if Array.for_all (fun v -> v <= 0.) visits then visits.(0) <- 1.;
            { G.work = Some (w *. Rng.float_range rng 0.5 1.5); visits });
  }

let shape_gen p =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          let* hot = int_range 0 (p - 1) in
          let* fraction = float_range 0. 1. in
          return (Pattern (Pattern.Hotspot { hot; fraction })) );
        (1, map (fun hops -> Pattern (Pattern.Multi_hop { hops })) (int_range 1 3));
        (1, return (Pattern Pattern.All_to_all));
        ( 1,
          if p < 3 then return (Pattern Pattern.All_to_all)
          else map (fun servers -> Pattern (Pattern.Client_server { servers })) (int_range 1 (p - 1)) );
        (1, map (fun seed -> Asymmetric { seed }) (int_range 0 1_000_000));
      ])

let case_gen =
  QCheck.Gen.(
    let* p = int_range 2 64 in
    let* st = float_range 0. 200. in
    let* so = float_range 1. 500. in
    let* c2 = oneofl [ 0.; 0.5; 1.; 2. ] in
    let* w = float_range 0. 5000. in
    let* protocol_processor = bool in
    let* shape = shape_gen p in
    return (Params.create ~c2 ~p ~st ~so (), w, protocol_processor, shape))

let print_case ((params : Params.t), w, protocol_processor, shape) =
  Printf.sprintf "p=%d st=%h so=%h c2=%g w=%h pp=%b %s" params.p params.st params.so
    params.c2 w protocol_processor (print_shape shape)

let net_of_case ((params : Params.t), w, protocol_processor, shape) =
  match shape with
  | Pattern pat -> Pattern.to_general ~protocol_processor params ~w pat
  | Asymmetric { seed } -> asymmetric_net params ~w ~protocol_processor ~seed

(* Every converged draw takes a few hundred iterations; the cap keeps the
   dense reference cheap on draws that saturate. *)
let lumped_max_iter = 5_000

let same_solution (a : G.solution) (b : G.solution) =
  let close = Harness.rel_close 1e-9 in
  let arrays x y = Array.length x = Array.length y && Array.for_all2 close x y in
  let node (m : G.node_solution) (n : G.node_solution) =
    close m.rq n.rq && close m.ry n.ry && close m.rw n.rw && close m.qq n.qq
    && close m.qy n.qy && close m.uq n.uq && close m.uy n.uy
  in
  arrays a.cycle_times b.cycle_times
  && arrays a.throughputs b.throughputs
  && Array.for_all2 node a.node_solutions b.node_solutions
  && close a.system_throughput b.system_throughput

let prop_lumped_matches_dense =
  QCheck.Test.make ~name:"general: lumped solve matches the dense reference" ~count:120
    (QCheck.make ~print:print_case case_gen) (fun case ->
      let net = net_of_case case in
      let lumped = G.solve_status ~max_iter:lumped_max_iter net in
      let dense = Harness.dense_general_solve_status ~max_iter:lumped_max_iter net in
      match (lumped, dense) with
      | (Some l, FP.Converged { iters = li }), (Some d, FP.Converged { iters = di }) ->
        if li <> di then QCheck.Test.fail_reportf "iterations: lumped %d, dense %d" li di
        else same_solution l d || QCheck.Test.fail_report "solutions differ"
      | (None, FP.Saturated { station = ls; _ }), (None, FP.Saturated { station = ds; _ }) ->
        ls = ds || QCheck.Test.fail_reportf "saturated at %d (lumped) and %d (dense)" ls ds
      | (None, FP.Diverged _), (None, FP.Diverged _) -> true
      (* Near saturation the damped iterate oscillates for all [max_iter]
         steps; whether the last one sits past utilization 1 depends on
         rounding, so [Saturated] and such a [Diverged] may swap. *)
      | (None, FP.Saturated _), (None, FP.Diverged { iters; residual })
      | (None, FP.Diverged { iters; residual }), (None, FP.Saturated _)
        when iters = lumped_max_iter && Float.is_finite residual ->
        true
      | (_, ls), (_, ds) ->
        QCheck.Test.fail_reportf "lumped %s, dense %s" (FP.status_to_string ls)
          (FP.status_to_string ds))

(* --- saturation at large P ----------------------------------------------------- *)

(* Each solve runs all 200,000 iterations before its diagnosis, so the
   time bound checks that an iteration costs O(classes²), not O(P²). The
   station named is the hot node itself, not its class. The budget keeps
   its meaning: one fuel unit per iteration, and a budget stop reported
   as [Exhausted], not re-diagnosed as saturation. *)
let test_saturated_hotspot_p128 () =
  let params = Params.create ~c2:0. ~p:128 ~st:40. ~so:200. () in
  let net hot = Pattern.to_general params ~w:1000. (Pattern.Hotspot { hot; fraction = 0.9 }) in
  List.iter
    (fun hot ->
      let t0 = Unix.gettimeofday () in
      let result = G.solve_status (net hot) in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match result with
      | None, FP.Saturated { station; utilization } when station = hot ->
        Alcotest.(check bool) "utilization at least 1" true (utilization >= 1. -. 1e-9)
      | _, status ->
        Alcotest.failf "expected saturation at node %d, got %s" hot (FP.status_to_string status));
      Alcotest.(check bool) (Printf.sprintf "under a second (%.3f s)" elapsed) true (elapsed < 1.))
    [ 0; 77 ];
  match G.solve_status ~budget:(Lopc_robust.Budget.create ~fuel:50 ()) (net 0) with
  | None, FP.Exhausted { iters = 50; reason = Lopc_robust.Budget.Fuel_exhausted _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion after 50, got %s" (FP.status_to_string status)

(* --- validation ---------------------------------------------------------------- *)

let test_validate_first_problem () =
  let p = Params.create ~p:3 ~st:1. ~so:1. () in
  let check_error name expected nodes =
    match G.validate { G.params = p; protocol_processor = false; nodes } with
    | Error reason -> Alcotest.(check string) name expected reason
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  (* Node 0's short row comes before node 2's bad work. *)
  check_error "first node's defect" "node 0 visit vector has length 2, expected 3"
    [|
      { G.work = Some 1.; visits = [| 1.; 1. |] };
      { G.work = Some 1.; visits = [| 1.; 0.; 0. |] };
      { G.work = Some (-1.); visits = [| 1.; 0.; 0. |] };
    |];
  (* A bad visit row is reported even when no node runs a thread. *)
  check_error "bad row before threadless" "negative or non-finite visit ratio"
    [|
      { G.work = None; visits = [| 0.; 0.; 0. |] };
      { G.work = None; visits = [| 0.; Float.nan; 0. |] };
      { G.work = None; visits = [| 0.; 0.; 0. |] };
    |];
  (* Within a node, the checks run in the order the messages are listed. *)
  check_error "invalid work before silence" "node 1 has invalid work"
    [|
      { G.work = Some 1.; visits = [| 0.; 1.; 0. |] };
      { G.work = Some Float.infinity; visits = [| 0.; 0.; 0. |] };
      { G.work = None; visits = [| 0.; 0.; -1. |] };
    |]

(* --- laws ---------------------------------------------------------------------- *)

let law_gen =
  QCheck.Gen.(
    let* p = int_range 2 128 in
    let* st = float_range 0. 200. in
    let* so = float_range 1. 500. in
    let* c2 = oneofl [ 0.; 0.5; 1.; 2. ] in
    let* w = float_range 0. 5000. in
    let* protocol_processor = bool in
    let* hot = int_range 0 (p - 1) in
    let* fraction = float_range 0. 1. in
    return (Params.create ~c2 ~p ~st ~so (), w, protocol_processor, hot, fraction))

let print_law ((params : Params.t), w, protocol_processor, hot, fraction) =
  Printf.sprintf "p=%d st=%h so=%h c2=%g w=%h pp=%b hot=%d fraction=%h" params.p params.st
    params.so params.c2 w protocol_processor hot fraction

let law_max_iter = 5_000

let hotspot_solve ?(tol = 1e-12) (params : Params.t) ~w ~protocol_processor ~hot ~fraction =
  match
    G.solve_status ~tol ~max_iter:law_max_iter
      (Pattern.to_general ~protocol_processor params ~w (Pattern.Hotspot { hot; fraction }))
  with
  | Some s, FP.Converged _ -> Some s
  | _ -> None

(* The stopping rule [‖F x − x‖ ≤ tol·max 1 ‖x‖] is absolute while every
   throughput is at most 1. Here every cycle spends at least 2·So in
   handlers and So ≥ 0.5 even at k = 0.5, so that holds. Scaling every
   time by k scales every throughput by 1/k, so the scaled solve gets
   [tol /. k]: both runs then stop at the same relative precision, and R
   must scale to rounding error. *)
let prop_time_scaling =
  QCheck.Test.make ~name:"general: scaling W, St and So by k scales every R by k" ~count:60
    (QCheck.make ~print:print_law law_gen)
    (fun ((params : Params.t), w, protocol_processor, hot, fraction) ->
      match hotspot_solve params ~w ~protocol_processor ~hot ~fraction with
      | None -> QCheck.assume_fail ()
      | Some base ->
        List.for_all
          (fun k ->
            let scaled =
              Params.create ~c2:params.c2 ~p:params.p ~st:(k *. params.st) ~so:(k *. params.so) ()
            in
            match
              hotspot_solve ~tol:(1e-12 /. k) scaled ~w:(k *. w) ~protocol_processor ~hot
                ~fraction
            with
            | Some s
              when Array.for_all2
                     (fun b r -> Harness.rel_close 1e-9 (k *. b) r)
                     base.G.cycle_times s.G.cycle_times ->
              true
            | Some _ -> QCheck.Test.fail_reportf "k = %g: R does not scale by k" k
            | None -> QCheck.Test.fail_reportf "k = %g: scaled solve did not converge" k)
          [ 0.5; 3.; 1000. ])

(* The monotone quantity is the system's mean cycle time, threads over
   total throughput. A single node's R is not monotone: the hot node's R
   falls as W grows (the other threads' requests thin out), and a cold
   node's R falls as the fraction grows (its own handlers idle more). The
   bound [1e-9] is the solver's convergence error. *)
let mean_cycle (s : G.solution) =
  Float.of_int (Array.length s.G.throughputs) /. s.G.system_throughput

let non_decreasing what lo hi =
  match (lo, hi) with
  | Some lo, Some hi ->
    mean_cycle hi >= mean_cycle lo *. (1. -. 1e-9)
    || QCheck.Test.fail_reportf "mean cycle time fell from %g to %g as %s grew" (mean_cycle lo)
         (mean_cycle hi) what
  | _ -> QCheck.assume_fail ()

let prop_monotone_in_w =
  QCheck.Test.make ~name:"general: mean R non-decreasing in W" ~count:60
    (QCheck.make ~print:print_law law_gen)
    (fun (params, w, protocol_processor, hot, fraction) ->
      non_decreasing "W"
        (hotspot_solve params ~w ~protocol_processor ~hot ~fraction)
        (hotspot_solve params ~w:(w *. 1.5) ~protocol_processor ~hot ~fraction))

let prop_monotone_in_fraction =
  QCheck.Test.make ~name:"general: mean R non-decreasing in the hotspot fraction" ~count:60
    (QCheck.make ~print:print_law law_gen)
    (fun (params, w, protocol_processor, hot, fraction) ->
      non_decreasing "the fraction"
        (hotspot_solve params ~w ~protocol_processor ~hot ~fraction:(fraction *. 0.8))
        (hotspot_solve params ~w ~protocol_processor ~hot ~fraction))

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 24) prop_lumped_matches_dense;
    Alcotest.test_case "general: P = 128 hotspot saturates fast" `Quick
      test_saturated_hotspot_p128;
    Alcotest.test_case "general: validate reports the first problem" `Quick
      test_validate_first_problem;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 25) prop_time_scaling;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 26) prop_monotone_in_w;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 27) prop_monotone_in_fraction;
  ]
