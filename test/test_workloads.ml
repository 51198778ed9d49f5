(* Tests for lopc_workloads: matvec parameterization (§3) and the
   pattern lowerings. *)

module Matvec = Lopc_workloads.Matvec
module Pattern = Lopc_workloads.Pattern
module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module G = Lopc.General

let feq tol = Alcotest.(check (float tol))

let test_matvec_counts () =
  (* N = 64, P = 8: each node owns 8 rows; n = 8·7 puts; W = 64/7 · madd. *)
  let mv = Matvec.create ~matrix_dim:64 ~p:8 ~madd_cost:4. in
  Alcotest.(check int) "messages" 56 (Matvec.messages_per_node mv);
  feq 1e-9 "W" (64. /. 7. *. 4.) (Matvec.work_between_requests mv)

let test_matvec_w_equals_m_over_n () =
  let mv = Matvec.create ~matrix_dim:96 ~p:16 ~madd_cost:2.5 in
  (* Each node owns 96/16 rows of 96 multiply-adds. *)
  let m = Float.of_int (96 / 16 * 96) *. 2.5 in
  let n = Float.of_int (Matvec.messages_per_node mv) in
  feq 1e-9 "W = m/n (paper section 3)" (m /. n) (Matvec.work_between_requests mv)

let test_matvec_characterize () =
  let mv = Matvec.create ~matrix_dim:64 ~p:8 ~madd_cost:4. in
  let alg = Matvec.characterize mv in
  Alcotest.(check int) "n" 56 alg.Lopc.Params.n;
  feq 1e-9 "w" (Matvec.work_between_requests mv) alg.Lopc.Params.w

let test_matvec_validation () =
  List.iter
    (fun thunk ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (thunk ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Matvec.create ~matrix_dim:65 ~p:8 ~madd_cost:1.);
      (fun () -> Matvec.create ~matrix_dim:64 ~p:1 ~madd_cost:1.);
      (fun () -> Matvec.create ~matrix_dim:64 ~p:8 ~madd_cost:0.);
    ]

let test_matvec_runtimes_ordered () =
  let mv = Matvec.create ~matrix_dim:256 ~p:16 ~madd_cost:4. in
  let params = Lopc.Params.create ~c2:0. ~p:16 ~st:40. ~so:200. () in
  let lopc = Matvec.lopc_runtime params mv in
  let logp = Matvec.logp_runtime params mv in
  Alcotest.(check bool) "LoPC above LogP" true (lopc > logp);
  (* The gap is about one handler per message. *)
  let per_message = (lopc -. logp) /. Float.of_int (Matvec.messages_per_node mv) in
  Alcotest.(check bool) "gap ~ one handler" true (per_message > 100. && per_message < 300.)

let test_matvec_p_mismatch () =
  let mv = Matvec.create ~matrix_dim:64 ~p:8 ~madd_cost:1. in
  let params = Lopc.Params.create ~p:16 ~st:1. ~so:1. () in
  Alcotest.(check bool) "P mismatch rejected" true
    (try
       ignore (Matvec.lopc_runtime params mv);
       false
     with Invalid_argument _ -> true)

let test_pattern_visit_rows_stochastic () =
  let params = Lopc.Params.create ~p:16 ~st:1. ~so:1. () in
  List.iter
    (fun (pat, hops) ->
      let net = Pattern.to_general params ~w:100. pat in
      Array.iteri
        (fun i (c : G.node_class) ->
          match c.work with
          | None -> ()
          | Some _ ->
            let sum = Array.fold_left ( +. ) 0. c.row in
            if Float.abs (sum -. hops) > 1e-9 then
              Alcotest.failf "%s: class %d's row sums to %g, expected %g"
                (Pattern.description pat) i sum hops)
        net.G.classes)
    [
      (Pattern.All_to_all, 1.);
      (Pattern.All_to_all_staggered, 1.);
      (Pattern.Client_server { servers = 4 }, 1.);
      (Pattern.Hotspot { hot = 0; fraction = 0.3 }, 1.);
      (Pattern.Multi_hop { hops = 3 }, 3.);
    ]

let test_pattern_hotspot_row () =
  let params = Lopc.Params.create ~p:4 ~st:1. ~so:1. () in
  let net = Pattern.to_general params ~w:10. (Pattern.Hotspot { hot = 0; fraction = 0.4 }) in
  (* Class 0 is the hot node, class 1 the other three. A cold thread sends
     0.4 + 0.6/3 to the hot node and 0.6/3 to each of the other two. *)
  let hot = net.G.classes.(0) and cold = net.G.classes.(1) in
  Alcotest.(check (pair int int)) "hot node" (1, 0) (hot.G.members, hot.G.first);
  Alcotest.(check (pair int int)) "cold nodes" (3, 1) (cold.G.members, cold.G.first);
  feq 1e-9 "to the hot node" (0.4 +. 0.2) cold.G.row.(0);
  feq 1e-9 "to the other cold nodes" 0.4 cold.G.row.(1);
  feq 1e-9 "all cold threads to the hot node" 1.8 cold.G.col.(0);
  feq 1e-9 "the hot thread to itself" 0.4 hot.G.row.(0)

let test_pattern_client_server_roles () =
  let params = Lopc.Params.create ~p:8 ~st:1. ~so:1. () in
  let net = Pattern.to_general params ~w:10. (Pattern.Client_server { servers = 3 }) in
  match net.G.classes with
  | [| servers; clients |] ->
    Alcotest.(check (pair int int)) "servers are nodes 0-2" (3, 0) (servers.G.members, servers.G.first);
    Alcotest.(check bool) "server idle" true (servers.G.work = None);
    Alcotest.(check (pair int int)) "clients are nodes 3-7" (5, 3) (clients.G.members, clients.G.first);
    Alcotest.(check bool) "client works" true (clients.G.work <> None)
  | classes -> Alcotest.failf "%d classes, expected 2" (Array.length classes)

let test_pattern_spec_and_general_consistent () =
  (* Routes sampled from the spec must match the class visits given to the
     model, in the long run. *)
  let params = Lopc.Params.create ~p:8 ~st:1. ~so:1. () in
  let hot = 2 in
  let pat = Pattern.Hotspot { hot; fraction = 0.25 } in
  let net = Pattern.to_general params ~w:100. pat in
  let spec =
    Pattern.to_spec ~nodes:8 ~work:(D.Constant 100.) ~handler:(D.Constant 1.)
      ~wire:(D.Constant 1.) pat
  in
  let origin = 5 in
  let thread =
    match spec.Spec.threads.(origin) with Some t -> t | None -> Alcotest.fail "thread"
  in
  let g = Lopc_prng.Rng.create 123 in
  let counts = Array.make 8 0 in
  let n = 40_000 in
  for issued = 0 to n - 1 do
    List.iter
      (fun d ->
        if d = origin then Alcotest.fail "a thread sent to itself";
        counts.(d) <- counts.(d) + 1)
      (thread.Spec.route g issued)
  done;
  (* The origin is cold. Its class row holds its visits to the hot node
     (the only member of its class) and to all other cold nodes together,
     which a fair route spreads evenly over them. *)
  let class_of node = if node = hot then 1 else 0 in
  let cold = net.G.classes.(0) in
  Alcotest.(check (pair int int)) "hot class" (1, hot)
    (net.G.classes.(1).G.members, net.G.classes.(1).G.first);
  Array.iteri
    (fun k c ->
      let observed = Float.of_int c /. Float.of_int n in
      let expected =
        if k = origin then 0.
        else if k = hot then cold.G.row.(class_of k)
        else cold.G.row.(class_of k) /. Float.of_int (cold.G.members - 1)
      in
      if Float.abs (observed -. expected) > 0.01 then
        Alcotest.failf "node %d: observed %g vs visit ratio %g" k observed expected)
    counts

let test_pattern_validation () =
  List.iter
    (fun pat ->
      match Pattern.validate ~nodes:8 pat with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" (Pattern.description pat))
    [
      Pattern.Client_server { servers = 0 };
      Pattern.Client_server { servers = 8 };
      Pattern.Hotspot { hot = 9; fraction = 0.5 };
      Pattern.Hotspot { hot = 0; fraction = 1.5 };
      Pattern.Multi_hop { hops = 0 };
    ]

let test_pattern_descriptions () =
  List.iter
    (fun pat -> Alcotest.(check bool) "nonempty" true (String.length (Pattern.description pat) > 0))
    [
      Pattern.All_to_all;
      Pattern.All_to_all_staggered;
      Pattern.Client_server { servers = 2 };
      Pattern.Hotspot { hot = 0; fraction = 0.1 };
      Pattern.Multi_hop { hops = 2 };
    ]

let prop_matvec_w_shrinks_with_p =
  QCheck.Test.make ~name:"matvec W decreases as P grows (fixed N)" ~count:50
    QCheck.(int_range 1 5)
    (fun k ->
      let p1 = 4 * k and p2 = 8 * k in
      let n = 8 * p1 * p2 in
      let w1 = Matvec.work_between_requests (Matvec.create ~matrix_dim:n ~p:p1 ~madd_cost:1.) in
      let w2 = Matvec.work_between_requests (Matvec.create ~matrix_dim:n ~p:p2 ~madd_cost:1.) in
      w2 < w1)

let suite =
  [
    Alcotest.test_case "matvec counts" `Quick test_matvec_counts;
    Alcotest.test_case "matvec W = m/n" `Quick test_matvec_w_equals_m_over_n;
    Alcotest.test_case "matvec characterize" `Quick test_matvec_characterize;
    Alcotest.test_case "matvec validation" `Quick test_matvec_validation;
    Alcotest.test_case "matvec LoPC vs LogP" `Quick test_matvec_runtimes_ordered;
    Alcotest.test_case "matvec P mismatch" `Quick test_matvec_p_mismatch;
    Alcotest.test_case "pattern rows stochastic" `Quick test_pattern_visit_rows_stochastic;
    Alcotest.test_case "pattern hotspot row" `Quick test_pattern_hotspot_row;
    Alcotest.test_case "pattern client-server roles" `Quick test_pattern_client_server_roles;
    Alcotest.test_case "pattern spec/model consistency" `Slow test_pattern_spec_and_general_consistent;
    Alcotest.test_case "pattern validation" `Quick test_pattern_validation;
    Alcotest.test_case "pattern descriptions" `Quick test_pattern_descriptions;
    QCheck_alcotest.to_alcotest prop_matvec_w_shrinks_with_p;
  ]
