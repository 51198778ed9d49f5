(* Irregular communication: a hotspot study with the general model.

   Hash tables, indirect array accesses and coherence home nodes all skew
   traffic toward particular nodes (paper §1). The Appendix-A model
   handles arbitrary visit matrices; this example sweeps the skew of a
   hotspot pattern and shows the hot node's utilization climbing toward
   1 while its queue grows, with the simulator confirming the
   prediction. The model converges at every skew: each thread slows
   down as the hot node fills, so no node passes full utilization.

   Run with:  dune exec examples/hotspot_analysis.exe *)

module G = Lopc.General
module Pattern = Lopc_workloads.Pattern
module D = Lopc_dist.Distribution
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics

let () =
  let p = 32 and w = 1000. and so = 200. and st = 40. in
  let params = Lopc.Params.create ~c2:1. ~p ~st ~so () in
  Printf.printf "hotspot all-to-all on P=%d, W=%.0f, So=%.0f, St=%.0f\n\n" p w so st;
  Printf.printf "%10s  %12s  %12s  %8s  %14s  %12s\n" "fraction" "model X" "sim X" "err %"
    "hot node Qq" "hot node Uq";
  List.iter
    (fun fraction ->
      let pat = Pattern.Hotspot { hot = 0; fraction } in
      let sol =
        Lopc_numerics.Fixed_point.get_exn (G.solve_status (Pattern.to_general params ~w pat))
      in
      let spec =
        Pattern.to_spec ~nodes:p ~work:(D.Exponential w) ~handler:(D.Exponential so)
          ~wire:(D.Constant st) pat
      in
      let sim =
        Metrics.throughput (Machine.run ~spec ~cycles:25_000 ()).Machine.metrics
      in
      let hot = sol.G.node_solutions.(0) in
      Printf.printf "%10.2f  %12.6f  %12.6f  %+7.2f%%  %14.3f  %12.3f\n" fraction
        sol.G.system_throughput sim
        (100. *. (sol.G.system_throughput -. sim) /. sim)
        hot.G.qq hot.G.uq)
    [ 0.; 0.1; 0.2; 0.3; 0.5; 0.7 ];
  Printf.printf
    "\nAs the skew grows, the hot node's request queue explodes and system\n\
     throughput collapses toward the hot node's service bound 1/So — the\n\
     kind of irregular-pattern effect LogP cannot express at all.\n"
