(* Quickstart: the complete LoPC workflow on the paper's running example.

   1. Characterize an algorithm (the §3 matrix-vector multiply) as the
      pair (n, W): requests per node and work between requests.
   2. Characterize the machine as (P, St, So, C²) — the same numbers a
      LogP analysis uses.
   3. Ask LoPC for the predicted run time, including contention, and
      compare with the contention-free LogP estimate and the simulator.

   Run with:  dune exec examples/quickstart.exe *)

module Matvec = Lopc_workloads.Matvec
module Pattern = Lopc_workloads.Pattern
module D = Lopc_dist.Distribution
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics

let () =
  (* An Alewife-like machine: 32 nodes, 40-cycle network, 200-cycle
     handlers with near-constant service time. *)
  let machine = Lopc.Params.create ~c2:0. ~p:32 ~st:40. ~so:200. () in

  (* A 512x512 matrix-vector multiply, 4 cycles per multiply-add. *)
  let workload = Matvec.create ~matrix_dim:512 ~p:32 ~madd_cost:4. in
  let alg = Matvec.characterize workload in
  Printf.printf "matrix-vector multiply, N=512 on P=32:\n";
  Printf.printf "  requests per node n = %d\n" alg.Lopc.Params.n;
  Printf.printf "  work per request  W = %.1f cycles\n\n" alg.Lopc.Params.w;

  (* Analytical predictions. *)
  let lopc = Matvec.lopc_runtime machine workload in
  let logp = Matvec.logp_runtime machine workload in
  Printf.printf "predicted run time:\n";
  Printf.printf "  LoPC (with contention) = %.0f cycles\n" lopc;
  Printf.printf "  LogP (naive)           = %.0f cycles  (%.1f%% below LoPC)\n\n" logp
    (100. *. (lopc -. logp) /. lopc);

  (* Validate against the event-driven simulator: the matvec put pattern
     is homogeneous all-to-all traffic with the same (n, W). *)
  let spec =
    Pattern.to_spec ~nodes:32
      ~work:(D.Constant alg.Lopc.Params.w)
      ~handler:(D.Constant 200.) ~wire:(D.Constant 40.) Pattern.All_to_all
  in
  let result = Machine.run ~spec ~cycles:30_000 () in
  let sim_cycle = Metrics.mean_response result.Machine.metrics in
  let sim_total = Float.of_int alg.Lopc.Params.n *. sim_cycle in
  Printf.printf "simulated run time       = %.0f cycles\n" sim_total;
  Printf.printf "  LoPC error             = %+.1f%%\n" (100. *. (lopc -. sim_total) /. sim_total);
  Printf.printf "  LogP error             = %+.1f%%\n" (100. *. (logp -. sim_total) /. sim_total);

  (* The paper's rule of thumb: contention costs about one extra handler
     per request (Eq 5.12). *)
  let s =
    Lopc_numerics.Fixed_point.get_exn (Lopc.All_to_all.solve_status machine ~w:alg.Lopc.Params.w)
  in
  Printf.printf "\nrule of thumb check: contention = %.1f cycles ~ %.2f handlers\n"
    s.Lopc.All_to_all.contention
    (s.Lopc.All_to_all.contention /. 200.)
