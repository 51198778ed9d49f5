(* The general model (Appendix A over classes of interchangeable nodes):
   the patterns' closed-form classes against colour refinement of their
   dense nets, the class solve against the unlumped reference in Harness,
   its input check, its convergence near saturation at large P, its
   algebraic laws, and its answers over the client-server and hotspot
   grids. *)

module Params = Lopc.Params
module G = Lopc.General
module FP = Lopc_numerics.Fixed_point
module Pattern = Lopc_workloads.Pattern
module Rng = Lopc_prng.Rng

(* --- pattern quotients ---------------------------------------------------------- *)

(* [Pattern.to_general] writes each pattern's classes in closed form; they
   must be the classes colour refinement finds in the pattern's dense net,
   with the same member counts and smallest members, and bit-equal work
   and quotient visits. Bit-equal, not merely close: the closed forms add
   equal terms one by one, as the refinement's sorted sums do (its extra
   terms are exact zeros), so a class net answers bit for bit as its
   per-node net's quotient does. *)
let same_quotient (closed : G.t) (lumped : G.t) =
  let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let same (a : G.node_class) (b : G.node_class) =
    a.members = b.members && a.first = b.first
    && Option.equal bits_equal a.work b.work
    && Array.length a.row = Array.length b.row
    && Array.length a.col = Array.length b.col
    && Array.for_all2 bits_equal a.row b.row
    && Array.for_all2 bits_equal a.col b.col
  in
  Array.length closed.classes = Array.length lumped.classes
  && Array.for_all2 same closed.classes lumped.classes

let print_classes (t : G.t) =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun (c : G.node_class) ->
            let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
            Printf.sprintf "{%d from %d row [%s] col [%s]}" c.members c.first (floats c.row)
              (floats c.col))
          t.classes))

let quotient_mismatch params ~w pat =
  let closed = Pattern.to_general params ~w pat in
  let lumped = fst (Harness.lump (Harness.dense_of_pattern params ~w pat)) in
  if same_quotient closed lumped then None
  else
    Some
      (Printf.sprintf "closed form %s, refinement %s" (print_classes closed)
         (print_classes lumped))

let quotient_gen =
  QCheck.Gen.(
    let* p = int_range 2 200 in
    let* w = float_range 0. 5000. in
    let* pat =
      frequency
        [
          (1, return Pattern.All_to_all);
          (1, map (fun hops -> Pattern.Multi_hop { hops }) (int_range 1 3));
          ( 3,
            let* hot = int_range 0 (p - 1) in
            let* fraction = frequency [ (1, return 0.); (1, return 1.); (4, float_range 0. 1.) ] in
            return (Pattern.Hotspot { hot; fraction }) );
          (2, map (fun servers -> Pattern.Client_server { servers }) (int_range 1 (p - 1)));
        ]
    in
    return (Params.create ~p ~st:40. ~so:200. (), w, pat))

let prop_quotient_matches_refinement =
  QCheck.Test.make ~name:"general: pattern quotients match colour refinement" ~count:200
    (QCheck.make
       ~print:(fun ((params : Params.t), w, pat) ->
         Printf.sprintf "p=%d w=%h %s" params.p w (Pattern.description pat))
       quotient_gen)
    (fun (params, w, pat) ->
      match quotient_mismatch params ~w pat with
      | None -> true
      | Some report -> QCheck.Test.fail_report report)

(* Every server count, at every P up to 24. *)
let test_client_server_quotients () =
  for p = 2 to 24 do
    let params = Params.create ~p ~st:40. ~so:200. () in
    for servers = 1 to p - 1 do
      match quotient_mismatch params ~w:1000. (Pattern.Client_server { servers }) with
      | None -> ()
      | Some report -> Alcotest.failf "P = %d, %d servers: %s" p servers report
    done
  done

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
    Harness.params;
    protocol_processor;
    nodes =
      Array.init p (fun c ->
          if c > 0 && Rng.int_below rng 4 = 0 then { Harness.work = None; visits = Array.make p 0. }
          else
            let visits = Array.init p (fun _ -> draw ()) in
            if Array.for_all (fun v -> v <= 0.) visits then visits.(0) <- 1.;
            { Harness.work = Some (w *. Rng.float_range rng 0.5 1.5); visits });
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
  | Pattern pat -> Harness.dense_of_pattern ~protocol_processor params ~w pat
  | Asymmetric { seed } -> asymmetric_net params ~w ~protocol_processor ~seed

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

(* The first thread class whose R·X is not 1 within 1e-9, if any: a
   solve that stopped at a fixed point of its own map has none. *)
let rx_problem (s : G.solution) =
  Seq.find_map
    (fun (c, r) ->
      let rx = r *. s.G.throughputs.(c) in
      if Float.is_nan r || Float.abs (rx -. 1.) <= 1e-9 then None
      else Some (Printf.sprintf "class %d: R·X = %.17g" c rx))
    (Array.to_seqi s.G.cycle_times)

(* The lumped solve is checked twice over on the per-node net: by
   [G.solve_status] on the net written node by node, from the
   contention-free start like any other solve, and by the independent
   reference in Harness, which writes the per-node equations out again.
   The reference sweeps node by node and crawls where one node is the
   bottleneck of many others (each cold node of a hot spot answers the
   rest through it), so it may reach its cap. Restarted from the lumped
   answer, it must then settle where it starts, which holds the lumped
   answer to the per-node equations. *)
let prop_lumped_matches_dense =
  QCheck.Test.make ~name:"general: lumped solve matches the dense reference" ~count:120
    (QCheck.make ~print:print_case case_gen) (fun case ->
      let net = net_of_case case in
      let quotient, class_of = Harness.lump net in
      let lumped = G.solve_status quotient in
      let lumped = (Option.map (Harness.per_node class_of) (fst lumped), snd lumped) in
      let dense =
        match (lumped, Harness.dense_general_solve_status ~max_sweeps:100 net) with
        | (Some l, FP.Converged _), (None, FP.Diverged _) ->
          Harness.dense_general_solve_status ~start:l.G.throughputs net
        | _, dense -> dense
      in
      let agree what other =
        match (lumped, other) with
        | (Some l, FP.Converged _), (Some d, FP.Converged _) ->
          same_solution l d || QCheck.Test.fail_reportf "%s: solutions differ" what
        | (None, FP.Diverged _), (None, FP.Diverged _) -> true
        | (_, ls), (_, ds) ->
          QCheck.Test.fail_reportf "lumped %s, %s %s" (FP.status_to_string ls) what
            (FP.status_to_string ds)
      in
      agree "per-node" (G.solve_status (Harness.unlumped net)) && agree "dense" dense)

(* --- near saturation at large P ------------------------------------------------ *)

(* The hot node runs at utilization above 0.99, yet the solve converges
   to its fixed point: every class's R·X is 1 within 1e-9. The time
   bound checks that an evaluation costs O(classes), not O(P²). The hot
   node's class is found by its smallest member, which is the hot node.
   The budget keeps its meaning: one fuel unit per evaluation of a
   class's cycle-time map, and a budget stop reported as [Exhausted]
   with the evaluations so far. *)
let test_hotspot_p128_converges () =
  let params = Params.create ~c2:0. ~p:128 ~st:40. ~so:200. () in
  let net hot = Pattern.to_general params ~w:1000. (Pattern.Hotspot { hot; fraction = 0.9 }) in
  List.iter
    (fun hot ->
      let t0 = Unix.gettimeofday () in
      let net = net hot in
      let result = G.solve_status net in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match result with
      | Some s, FP.Converged _ ->
        Array.iteri
          (fun i (c : G.node_class) ->
            let u = s.G.node_solutions.(i).G.uq in
            if c.first = hot && not (u > 0.99 && u < 1.) then
              Alcotest.failf "hot node %d: utilization %g outside (0.99, 1)" hot u;
            let rx = s.G.cycle_times.(i) *. s.G.throughputs.(i) in
            if Float.abs (rx -. 1.) > 1e-9 then
              Alcotest.failf "class from %d: R·X = %.17g" c.first rx)
          net.G.classes
      | _, status ->
        Alcotest.failf "hot node %d: expected convergence, got %s" hot
          (FP.status_to_string status));
      Alcotest.(check bool) (Printf.sprintf "under a second (%.3f s)" elapsed) true (elapsed < 1.))
    [ 0; 77 ];
  match G.solve_status ~budget:(Lopc_robust.Budget.create ~fuel:50 ()) (net 0) with
  | None, FP.Exhausted { iters = 50; reason = Lopc_robust.Budget.Fuel_exhausted _ } -> ()
  | _, status -> Alcotest.failf "expected exhaustion after 50, got %s" (FP.status_to_string status)

(* --- validation ---------------------------------------------------------------- *)

let test_validate_first_problem () =
  let p = Params.create ~p:3 ~st:1. ~so:1. () in
  let check_error name expected classes =
    match G.validate { G.params = p; protocol_processor = false; classes } with
    | Error reason -> Alcotest.(check string) name expected reason
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  let node ?(members = 1) ~first work row col = { G.members; first; work; row; col } in
  (* Class 0's short row comes before class 2's bad work. *)
  check_error "first class's defect" "class 0 visit vectors have lengths 2 and 3, expected 3"
    [|
      node ~first:0 (Some 1.) [| 1.; 1. |] [| 0.; 1.; 1. |];
      node ~first:1 (Some 1.) [| 1.; 0.; 0. |] [| 0.; 0.; 0. |];
      node ~first:2 (Some (-1.)) [| 1.; 0.; 0. |] [| 0.; 0.; 0. |];
    |];
  (* A bad visit row is reported even when no node runs a thread. *)
  check_error "bad row before threadless" "class 1 has a negative or non-finite visit ratio"
    [|
      node ~first:0 None [| 0.; 0.; 0. |] [| 0.; 0.; 0. |];
      node ~first:1 None [| 0.; Float.nan; 0. |] [| 0.; 0.; 0. |];
      node ~first:2 None [| 0.; 0.; 0. |] [| 0.; 0.; 0. |];
    |];
  (* Within a class, the checks run in the order the messages are listed. *)
  check_error "invalid work before silence" "class 1 has invalid work"
    [|
      node ~first:0 (Some 1.) [| 0.; 1.; 0. |] [| 0.; 1.; 0. |];
      node ~first:1 (Some Float.infinity) [| 0.; 0.; 0. |] [| 0.; 0.; 0. |];
      node ~first:2 None [| 0.; 0.; -1. |] [| 0.; 0.; 0. |];
    |];
  check_error "order before shape" "class 1's smallest member 0 is out of order"
    [| node ~first:0 (Some 1.) [| 1.; 0. |] [| 1.; 0. |]; node ~first:0 (Some 1.) [||] [||] |];
  (* Class 0's thread visits class 1 once, but the column says twice. *)
  check_error "row and column agree" "class 0's row and column visits to class 1 disagree"
    [|
      node ~members:2 ~first:0 (Some 1.) [| 0.; 1. |] [| 0.; 4. |];
      node ~first:2 None [| 0.; 0. |] [| 0.; 0. |];
    |];
  check_error "members add up to P" "params.p = 3 but the classes hold 4 nodes"
    [| node ~members:3 ~first:0 (Some 1.) [| 1.; 0. |] [| 1.; 0. |]; node ~first:1 None [| 0.; 0. |] [| 0.; 0. |] |];
  check_error "threadless" "no node runs a thread" [| node ~members:3 ~first:0 None [| 0. |] [| 0. |] |];
  (* The model never reads a server's row or column, so they need not
     agree. *)
  match
    G.validate
      {
        G.params = p;
        protocol_processor = false;
        classes =
          [|
            node ~members:2 ~first:0 (Some 1.) [| 1.; 1. |] [| 1.; 2. |];
            node ~first:2 None [| 5.; 0. |] [| 0.; 0. |];
          |];
      }
  with
  | Ok _ -> ()
  | Error reason -> Alcotest.failf "server row rejected: %s" reason

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

let hotspot_solve (params : Params.t) ~w ~protocol_processor ~hot ~fraction =
  match
    G.solve_status
      (Pattern.to_general ~protocol_processor params ~w (Pattern.Hotspot { hot; fraction }))
  with
  | Some s, FP.Converged _ -> Some s
  | _ -> None

(* The stopping rule is relative (no throughput moves by more than
   1e-12 of itself), and each class's root search runs in units of its
   own contention-free bound, so the scaled solve stops at the same
   relative precision and R must scale to rounding error. *)
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
            match hotspot_solve scaled ~w:(k *. w) ~protocol_processor ~hot ~fraction with
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
let non_decreasing what (params : Params.t) lo hi =
  (* Every node of a hotspot net runs a thread. *)
  let mean_cycle (s : G.solution) = Float.of_int params.p /. s.G.system_throughput in
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
      non_decreasing "W" params
        (hotspot_solve params ~w ~protocol_processor ~hot ~fraction)
        (hotspot_solve params ~w:(w *. 1.5) ~protocol_processor ~hot ~fraction))

let prop_monotone_in_fraction =
  QCheck.Test.make ~name:"general: mean R non-decreasing in the hotspot fraction" ~count:60
    (QCheck.make ~print:print_law law_gen)
    (fun (params, w, protocol_processor, hot, fraction) ->
      non_decreasing "the fraction" params
        (hotspot_solve params ~w ~protocol_processor ~hot ~fraction:(fraction *. 0.8))
        (hotspot_solve params ~w ~protocol_processor ~hot ~fraction))

(* --- the Appendix-A grids -------------------------------------------------------- *)

(* Every server count at P ∈ {2, 4, 8, 32}, over C² and W: each solve
   converges and its throughput is Bard's AMVA on the same closed
   network (Pc customers, think time W + 2·St + So, Ps queueing servers
   of demand So/Ps each) within 1e-9 relative. The points at P = 32 with
   one or two servers run the servers at utilization 0.95 to 0.98. *)
let test_client_server_grid () =
  List.iter
    (fun p ->
      for servers = 1 to p - 1 do
        List.iter
          (fun c2 ->
            List.iter
              (fun w ->
                let params = Params.create ~c2 ~p ~st:40. ~so:200. () in
                let amva = Harness.workpile_amva params ~w ~servers in
                match G.solve_status (Lopc.Client_server.net params ~w ~servers) with
                | Some s, FP.Converged _ ->
                  let x = amva.Lopc_mva.Solution.throughput in
                  if not (Harness.rel_close 1e-9 s.G.system_throughput x) then
                    Alcotest.failf "P = %d, %d servers, C2 = %g, W = %g: X = %.17g, AMVA %.17g" p
                      servers c2 w s.G.system_throughput x
                | _, status ->
                  Alcotest.failf "P = %d, %d servers, C2 = %g, W = %g: %s" p servers c2 w
                    (FP.status_to_string status))
              [ 0.; 100.; 1000.; 10000. ])
          [ 0.; 0.5; 1.; 2. ]
      done)
    [ 2; 4; 8; 32 ]

(* Node 0 hot, W = 1000, So = 200, St = 40, C² = 1, the fraction from 0
   to 1 in steps of 0.005: every point converges, and the hot node's
   utilization never falls as the fraction grows. At P = 128 it passes
   0.99. *)
let test_hotspot_grid () =
  List.iter
    (fun p ->
      let params = Params.create ~c2:1. ~p ~st:40. ~so:200. () in
      ignore
        (List.fold_left
           (fun previous i ->
             let fraction = Float.of_int i *. 0.005 in
             match
               G.solve_status
                 (Pattern.to_general params ~w:1000. (Pattern.Hotspot { hot = 0; fraction }))
             with
             | Some s, FP.Converged _ ->
               let u = s.G.node_solutions.(0).G.uq in
               if u < previous then
                 Alcotest.failf "P = %d: hot U fell from %.17g to %.17g at f = %g" p previous u
                   fraction;
               u
             | _, status ->
               Alcotest.failf "P = %d, f = %g: %s" p fraction (FP.status_to_string status))
           0. (List.init 201 Fun.id)))
    [ 8; 32; 128 ]

(* The same hot spot past P = 8,000, where rounding holds the per-node
   residual above the 1e-12 tolerance and the solve stops at its
   rounding floor: every point from P = 2¹³ to 2²⁴ converges, with
   R·X = 1 per class. The hot node's distance from saturation shrinks
   like 1/P, so the residual rounding allows grows like ε·P (about
   1.5·ε·P at worst on this grid); R·X is held within 16·ε·P. *)
let test_large_p_hotspot_grid () =
  List.iter
    (fun p ->
      let params = Params.create ~c2:1. ~p ~st:40. ~so:200. () in
      List.iter
        (fun fraction ->
          match
            G.solve_status
              (Pattern.to_general params ~w:1000. (Pattern.Hotspot { hot = 0; fraction }))
          with
          | Some s, FP.Converged _ ->
            Array.iteri
              (fun c r ->
                let rx = r *. s.G.throughputs.(c) in
                if Float.abs (rx -. 1.) > 16. *. epsilon_float *. Float.of_int p then
                  Alcotest.failf "P = %d, f = %g, class %d: R·X = %.17g" p fraction c rx)
              s.G.cycle_times
          | _, status ->
            Alcotest.failf "P = %d, f = %g: %s" p fraction (FP.status_to_string status))
        [ 0.; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 1. ])
    [ 1 lsl 13; 1 lsl 14; 1 lsl 16; 1 lsl 20; 1 lsl 24 ]

(* --- nets written node by node -------------------------------------------------- *)

(* A hot spot written node by node through the public record, every node
   its own class, solved from the contention-free start: it converges,
   every class has R·X = 1, and each node's answer is its class's in the
   lumped solve within 1e-9 relative. Many one-member thread classes
   share one bottleneck here, the case a class-by-class sweep crawls
   on. *)
let per_node_hotspot (params : Params.t) ~hot ~fraction =
  let dense = Harness.dense_of_pattern params ~w:1000. (Pattern.Hotspot { hot; fraction }) in
  let quotient, class_of = Harness.lump dense in
  match (G.solve_status quotient, G.solve_status (Harness.unlumped dense)) with
  | (Some l, FP.Converged _), (Some d, FP.Converged _) -> (
    match rx_problem d with
    | Some _ as problem -> problem
    | None when same_solution (Harness.per_node class_of l) d -> None
    | None -> Some "per-node and lumped solutions differ")
  | (_, ls), (_, ds) ->
    Some
      (Printf.sprintf "lumped %s, per-node %s" (FP.status_to_string ls) (FP.status_to_string ds))

let prop_per_node_hotspot =
  QCheck.Test.make ~name:"general: per-node hotspot nets converge to the lumped answer"
    ~count:40
    (QCheck.make
       ~print:(fun ((params : Params.t), hot, fraction) ->
         Printf.sprintf "p=%d c2=%g hot=%d fraction=%h" params.p params.c2 hot fraction)
       QCheck.Gen.(
         let* p = int_range 8 64 in
         let* c2 = oneofl [ 0.; 1.; 2. ] in
         let* hot = int_range 0 (p - 1) in
         let* fraction = frequency [ (1, return 0.); (1, return 1.); (6, float_range 0. 1.) ] in
         return (Params.create ~c2 ~p ~st:40. ~so:200. (), hot, fraction)))
    (fun (params, hot, fraction) ->
      Option.fold ~none:true ~some:QCheck.Test.fail_report (per_node_hotspot params ~hot ~fraction))

let test_per_node_p128 () =
  let params = Params.create ~c2:1. ~p:128 ~st:40. ~so:200. () in
  Option.iter Alcotest.fail (per_node_hotspot params ~hot:0 ~fraction:0.3)

(* Random asymmetric nets written node by node, some nodes pure servers:
   every solve converges within the sweep cap and stops at a fixed
   point. *)
let prop_asymmetric_converges =
  QCheck.Test.make ~name:"general: random asymmetric per-node nets converge" ~count:500
    (QCheck.make
       ~print:(fun ((params : Params.t), w, pp, seed) ->
         Printf.sprintf "p=%d st=%h so=%h c2=%g w=%h pp=%b seed=%d" params.p params.st params.so
           params.c2 w pp seed)
       QCheck.Gen.(
         let* p = int_range 2 12 in
         let* st = float_range 0. 200. in
         let* so = float_range 1. 500. in
         let* c2 = oneofl [ 0.; 0.5; 1.; 2. ] in
         let* w = float_range 0. 5000. in
         let* protocol_processor = bool in
         let* seed = int_range 0 1_000_000 in
         return (Params.create ~c2 ~p ~st ~so (), w, protocol_processor, seed)))
    (fun (params, w, protocol_processor, seed) ->
      match
        G.solve_status (Harness.unlumped (asymmetric_net params ~w ~protocol_processor ~seed))
      with
      | Some s, FP.Converged _ ->
        Option.fold ~none:true ~some:QCheck.Test.fail_report (rx_problem s)
      | _, status -> QCheck.Test.fail_report (FP.status_to_string status))

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 24) prop_lumped_matches_dense;
    Alcotest.test_case "general: P = 128 hotspot converges fast" `Quick
      test_hotspot_p128_converges;
    Alcotest.test_case "general: validate reports the first problem" `Quick
      test_validate_first_problem;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 25) prop_time_scaling;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 26) prop_monotone_in_w;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 27) prop_monotone_in_fraction;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 28) prop_quotient_matches_refinement;
    Alcotest.test_case "general: client-server quotients at every server count" `Quick
      test_client_server_quotients;
    Alcotest.test_case "general: client-server grid matches Bard's AMVA" `Quick
      test_client_server_grid;
    Alcotest.test_case "general: hotspot grid converges, hot U non-decreasing" `Quick
      test_hotspot_grid;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 37) prop_per_node_hotspot;
    Alcotest.test_case "general: per-node P = 128 hotspot converges" `Quick test_per_node_p128;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 38) prop_asymmetric_converges;
    Alcotest.test_case "general: hotspot grid to P = 2^24 converges, R·X = 1" `Quick
      test_large_p_hotspot_grid;
  ]
