(* Calibrating the model from measurements.

   §3 derives St and So from the hardware manual. On an unfamiliar
   machine you would instead run an all-to-all micro-benchmark at a few
   work grains, measure the cycle times, and fit the model to them. This
   example plays both roles: the simulator stands in for the unfamiliar
   machine (true parameters hidden inside), and Lopc.Calibrate recovers
   them — pinning St to a ping-pong measurement, as one would in
   practice, to break the St/So degeneracy.

   Run with:  dune exec examples/calibration.exe *)

module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Cal = Lopc.Calibrate

let () =
  let p = 32 in
  (* The "unknown" machine. *)
  let true_st = 40. and true_so = 200. in
  Printf.printf "measuring an all-to-all micro-benchmark on the 'unknown' machine...\n\n";
  let observations =
    List.map
      (fun w ->
        let spec =
          Spec.all_to_all ~nodes:p ~work:(D.Exponential w)
            ~handler:(D.Exponential true_so) ~wire:(D.Constant true_st) ()
        in
        let r =
          Metrics.mean_response (Machine.run ~spec ~cycles:40_000 ()).Machine.metrics
        in
        Printf.printf "  W = %5.0f -> measured R = %8.1f\n" w r;
        (w, r))
      [ 25.; 100.; 400.; 1600.; 6400. ]
  in
  (* A ping-pong benchmark would give the wire latency directly. *)
  Printf.printf "\nping-pong says St = %.0f; fitting So...\n\n" true_st;
  let fit = Cal.fit ~fixed_st:true_st ~p ~observations () in
  Printf.printf "fitted: So = %.1f (true %.0f), rms residual %.1f cycles (%.2f%%)\n\n"
    fit.Cal.params.Lopc.Params.so true_so fit.Cal.residual
    (100. *. fit.Cal.relative_residual);
  Printf.printf "%10s %12s %12s\n" "W" "measured" "fitted model";
  List.iter
    (fun (w, measured, fitted) ->
      Printf.printf "%10.0f %12.1f %12.1f\n" w measured fitted)
    (Cal.predictions fit ~observations);
  (* The calibrated model now extrapolates. *)
  let extrapolated =
    (Lopc_numerics.Fixed_point.get_exn (Lopc.All_to_all.solve_status fit.Cal.params ~w:12_800.))
      .Lopc.All_to_all.r
  in
  let spec =
    Spec.all_to_all ~nodes:p ~work:(D.Exponential 12_800.)
      ~handler:(D.Exponential true_so) ~wire:(D.Constant true_st) ()
  in
  let check =
    Metrics.mean_response (Machine.run ~spec ~cycles:20_000 ()).Machine.metrics
  in
  Printf.printf
    "\nextrapolation to W = 12800: model %.0f vs fresh measurement %.0f (%+.1f%%)\n"
    extrapolated check
    (100. *. (extrapolated -. check) /. check)
