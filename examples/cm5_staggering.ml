(* Why regular patterns degrade (paper §1, after Brewer & Kuszmaul).

   On the CM-5, all-to-all patterns were carefully scheduled so message
   arrivals interleave and nobody queues. Brewer and Kuszmaul observed
   that small timing variances quickly randomize such patterns. This
   example reproduces the phenomenon on the simulator: a perfectly
   synchronized permutation pattern is contention free with constant
   service times, but a tiny variance in the work draws makes its
   response time drift to the fully random pattern's — which is what the
   LoPC model predicts.

   Run with:  dune exec examples/cm5_staggering.exe *)

module A = Lopc.All_to_all
module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics

let simulate ?barrier ~staggered ~work () =
  let base =
    Spec.all_to_all ~staggered ~nodes:32 ~work ~handler:(D.Constant 200.)
      ~wire:(D.Constant 40.) ()
  in
  let spec = { base with Spec.barrier } in
  Metrics.mean_response (Machine.run ~spec ~cycles:25_000 ()).Machine.metrics

let () =
  let w = 1000. in
  let params = Lopc.Params.create ~c2:0. ~p:32 ~st:40. ~so:200. () in
  let lopc = (Lopc_numerics.Fixed_point.get_exn (A.solve_status params ~w)).A.r in
  let lower = A.lower_bound params ~w in
  Printf.printf "all-to-all on P=32, W=1000, So=200, St=40 (constant handlers)\n\n";
  Printf.printf "contention-free cost (perfect schedule): %.0f cycles\n" lower;
  Printf.printf "LoPC prediction (random arrivals):       %.1f cycles\n\n" lopc;
  Printf.printf "%28s  %12s\n" "pattern" "simulated R";
  let show name r = Printf.printf "%34s  %12.1f\n" name r in
  (* Perfectly synchronized permutation: no contention at all. *)
  show "staggered, W variance 0" (simulate ~staggered:true ~work:(D.Constant w) ());
  (* A 1% standard deviation in the work is enough to desynchronize. *)
  List.iter
    (fun pct ->
      let spread = w *. pct in
      let work = D.Uniform (w -. spread, w +. spread) in
      show
        (Printf.sprintf "staggered, +-%.0f%% work jitter" (100. *. pct))
        (simulate ~staggered:true ~work ()))
    [ 0.01; 0.05; 0.20 ];
  show "random destinations" (simulate ~staggered:false ~work:(D.Constant w) ());
  (* The CM-5 remedy: resynchronize with cheap barriers (paper section 1). *)
  let jittery = D.Uniform (w -. (0.05 *. w), w +. (0.05 *. w)) in
  show "+-5% jitter, barrier every cycle"
    (simulate ~barrier:{ Spec.interval = 1; cost = 10. } ~staggered:true ~work:jittery ());
  show "+-5% jitter, barrier every 8"
    (simulate ~barrier:{ Spec.interval = 8; cost = 10. } ~staggered:true ~work:jittery ());
  Printf.printf
    "\nWith zero variance the carefully scheduled pattern achieves the\n\
     contention-free bound, but a percent of jitter already pushes it to\n\
     the random-pattern cost — the LoPC prediction. Per-cycle barriers\n\
     claw back most of the contention (the CM-5 trick), but as the paper\n\
     notes, few machines make barriers cheap enough to use this way.\n"
