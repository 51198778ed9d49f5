(* Tests for lopc_topology and the torus extensions (model + simulator). *)

module T = Lopc_topology.Topology
module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Torus = Lopc.Torus

let feq tol = Alcotest.(check (float tol))

let topo ?(per_hop = 5.) ?(link_time = 0.) nodes = T.create ~nodes ~per_hop ~link_time ()

let test_factorization () =
  let t = topo 32 in
  Alcotest.(check (pair int int)) "near-square 32" (4, 8) (t.T.rows, t.T.cols);
  let t16 = topo 16 in
  Alcotest.(check (pair int int)) "square 16" (4, 4) (t16.T.rows, t16.T.cols);
  let t6 = topo 6 in
  Alcotest.(check (pair int int)) "6 = 2x3" (2, 3) (t6.T.rows, t6.T.cols)

let test_coords_roundtrip () =
  let t = topo 32 in
  for node = 0 to 31 do
    let row, col = T.coords t node in
    Alcotest.(check int) "roundtrip" node (T.node_of t ~row ~col)
  done

let test_wraparound () =
  let t = topo 32 in
  Alcotest.(check int) "negative wraps" (T.node_of t ~row:3 ~col:7)
    (T.node_of t ~row:(-1) ~col:(-1))

let test_distance_symmetric () =
  let t = topo 32 in
  for src = 0 to 31 do
    for dst = 0 to 31 do
      Alcotest.(check int) "symmetric"
        (T.distance t ~src ~dst)
        (T.distance t ~src:dst ~dst:src)
    done
  done

let test_distance_wraps_minimally () =
  (* On an 8-ring, column 0 to column 7 is one hop backwards. *)
  let t = topo 32 in
  Alcotest.(check int) "wrap distance" 1
    (T.distance t ~src:(T.node_of t ~row:0 ~col:0) ~dst:(T.node_of t ~row:0 ~col:7))

let test_route_length_equals_distance () =
  let t = topo 32 in
  for src = 0 to 31 do
    for dst = 0 to 31 do
      Alcotest.(check int) "route length"
        (T.distance t ~src ~dst)
        (List.length (T.route t ~src ~dst))
    done
  done

let test_route_reaches_destination () =
  (* Follow the links and verify we land on dst. *)
  let t = topo 32 in
  let step node = function
    | T.X_plus ->
      let r, c = T.coords t node in
      T.node_of t ~row:r ~col:(c + 1)
    | T.X_minus ->
      let r, c = T.coords t node in
      T.node_of t ~row:r ~col:(c - 1)
    | T.Y_plus ->
      let r, c = T.coords t node in
      T.node_of t ~row:(r + 1) ~col:c
    | T.Y_minus ->
      let r, c = T.coords t node in
      T.node_of t ~row:(r - 1) ~col:c
  in
  for src = 0 to 31 do
    for dst = 0 to 31 do
      let final =
        List.fold_left
          (fun here (from, dir) ->
            Alcotest.(check int) "link leaves current node" here from;
            step here dir)
          src
          (T.route t ~src ~dst)
      in
      Alcotest.(check int) "route ends at destination" dst final
    done
  done

let test_mean_distance_matches_offsets () =
  let t = topo 32 in
  let dx, dy = T.mean_offsets t in
  feq 1e-9 "offsets sum to distance" (T.mean_distance t) (dx +. dy)

let test_mean_distance_ring () =
  (* A prime node count factors only as 1xN, a ring; for N=7 the mean
     distance to another node is (1+2+3+3+2+1)/6 = 2. *)
  let t = topo 7 in
  Alcotest.(check (pair int int)) "7 = 1x7" (1, 7) (t.T.rows, t.T.cols);
  feq 1e-9 "ring mean" 2. (T.mean_distance t)

let test_validation () =
  List.iter
    (fun thunk ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (thunk ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> T.create ~nodes:1 ~per_hop:1. ~link_time:0. ());
      (fun () -> T.create ~nodes:8 ~per_hop:(-1.) ~link_time:0. ());
    ]

(* --- simulator integration ------------------------------------------------ *)

let test_sim_single_message_latency () =
  (* One client on an uncontended torus: wire time is exactly
     distance · (per_hop + link_time) each way. *)
  let t = T.create ~nodes:4 ~per_hop:7. ~link_time:3. () in
  (* Node 3 is at (1,1): distance from 0 is 2. *)
  let base =
    {
      Spec.nodes = 4;
      threads =
        [| Some { Spec.work = D.Constant 100.; route = (fun _ _ -> [ 3 ]); window = 1 };
           None; None; None |];
      handler = D.Constant 10.;
      reply_handler = D.Constant 10.;
      wire = D.Constant 999.;  (* must be ignored in topology mode *)
      protocol_processor = false;
      gap = 0.;
      polling = false;
      barrier = None;
      topology = Some t;
      fault = None;
    }
  in
  let r = Machine.run ~spec:base ~cycles:200 () in
  (* R = W + 2·2·(7+3) + 2·So = 100 + 40 + 20. *)
  feq 1e-9 "torus latency" 160. (Metrics.mean_response r.Machine.metrics)

let test_sim_topology_size_mismatch () =
  let t = T.create ~nodes:8 ~per_hop:1. ~link_time:0. () in
  let base =
    Spec.all_to_all ~nodes:4 ~work:(D.Constant 1.) ~handler:(D.Constant 1.)
      ~wire:(D.Constant 1.) ()
  in
  match Spec.validate { base with Spec.topology = Some t } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched topology accepted"

let test_model_zero_links_matches_base () =
  (* With link_time 0 the torus model equals plain LoPC with
     St = mean distance · per_hop. *)
  let t = T.create ~nodes:32 ~per_hop:10. ~link_time:0. () in
  let params = Lopc.Params.create ~c2:1. ~p:32 ~st:0. ~so:200. () in
  let s = Harness.torus_solve params ~topology:t ~w:1000. in
  let st = T.mean_distance t *. 10. in
  let direct = Lopc.All_to_all.solve (Lopc.Params.create ~c2:1. ~p:32 ~st ~so:200. ()) ~w:1000. in
  feq 1e-6 "matches contention-free" direct.Lopc.All_to_all.r s.Torus.r;
  feq 0. "penalty zero" 0. s.Torus.penalty

let test_model_vs_simulator () =
  let params = Lopc.Params.create ~c2:1. ~p:16 ~st:0. ~so:200. () in
  List.iter
    (fun link_time ->
      let t = T.create ~nodes:16 ~per_hop:10. ~link_time () in
      let model = (Harness.torus_solve params ~topology:t ~w:1000.).Torus.r in
      let base =
        Spec.all_to_all ~nodes:16 ~work:(D.Exponential 1000.)
          ~handler:(D.Exponential 200.) ~wire:(D.Constant 0.) ()
      in
      let spec = { base with Spec.topology = Some t } in
      let sim =
        Metrics.mean_response (Machine.run ~spec ~cycles:40_000 ()).Machine.metrics
      in
      let err = Float.abs ((model -. sim) /. sim) in
      if err > 0.05 then
        Alcotest.failf "link=%g: model %g vs sim %g (err %.1f%%)" link_time model sim
          (100. *. err))
    [ 0.; 50.; 200. ]

let test_model_penalty_grows_with_load () =
  let params = Lopc.Params.create ~c2:1. ~p:32 ~st:0. ~so:200. () in
  let t = T.create ~nodes:32 ~per_hop:10. ~link_time:100. () in
  let p_fine = (Harness.torus_solve params ~topology:t ~w:0.).Torus.penalty in
  let p_coarse = (Harness.torus_solve params ~topology:t ~w:4000.).Torus.penalty in
  Alcotest.(check bool) "finer grain, more link contention" true (p_fine > p_coarse)

(* The link time at which network contention costs [penalty] (5%) over
   the contention-free torus: a root find on the penalty. *)
let tolerable_link_time ?(penalty = 0.05) params ~(topology : T.t) ~w =
  let slowdown lt =
    (Harness.torus_solve params ~topology:{ topology with T.link_time = lt } ~w).Torus.penalty
    -. penalty
  in
  Lopc_numerics.Roots.brent_above ~f:slowdown 1e-9

let test_tolerable_link_time () =
  let params = Lopc.Params.create ~c2:1. ~p:32 ~st:0. ~so:200. () in
  let t = T.create ~nodes:32 ~per_hop:10. ~link_time:0. () in
  let lt = tolerable_link_time params ~topology:t ~w:0. in
  Alcotest.(check bool) "positive threshold" true (lt > 0.);
  let s = Harness.torus_solve params ~topology:{ t with T.link_time = lt } ~w:0. in
  Alcotest.(check bool) "penalty ~ 5% at threshold" true
    (Float.abs (s.Torus.penalty -. 0.05) < 2e-3)

let suite =
  [
    Alcotest.test_case "factorization" `Quick test_factorization;
    Alcotest.test_case "coords roundtrip" `Quick test_coords_roundtrip;
    Alcotest.test_case "wraparound addressing" `Quick test_wraparound;
    Alcotest.test_case "distance symmetric" `Quick test_distance_symmetric;
    Alcotest.test_case "distance wraps minimally" `Quick test_distance_wraps_minimally;
    Alcotest.test_case "route length = distance" `Quick test_route_length_equals_distance;
    Alcotest.test_case "routes reach destinations" `Quick test_route_reaches_destination;
    Alcotest.test_case "mean distance = offsets" `Quick test_mean_distance_matches_offsets;
    Alcotest.test_case "ring mean distance" `Quick test_mean_distance_ring;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "sim: deterministic torus latency" `Quick test_sim_single_message_latency;
    Alcotest.test_case "sim: size mismatch rejected" `Quick test_sim_topology_size_mismatch;
    Alcotest.test_case "model: zero links = plain LoPC" `Quick test_model_zero_links_matches_base;
    Alcotest.test_case "model vs simulator" `Slow test_model_vs_simulator;
    Alcotest.test_case "model: penalty grows with load" `Quick test_model_penalty_grows_with_load;
    Alcotest.test_case "model: tolerable link time" `Quick test_tolerable_link_time;
  ]
