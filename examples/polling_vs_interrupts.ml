(* Interrupts or polling? (paper §3)

   LogP was parameterized for the CM-5, where message notification is by
   polling; LoPC assumes interrupt-driven active messages. The two
   mechanisms trade the same contention differently:

   - interrupts steal processor time from the compute thread (the BKT
     term of Eq 5.7) but serve handlers immediately;
   - polling leaves the thread undisturbed but makes every incoming
     request wait out the residual work quantum of a busy destination.

   With the three-way execution model (interrupt / polling / protocol
   processor) both sides of the trade are quantified, and the crossover
   located. Run with:  dune exec examples/polling_vs_interrupts.exe *)

module A = Lopc.All_to_all
module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Fixed_point = Lopc_numerics.Fixed_point

let cycle_time ?execution params ~w =
  (Fixed_point.get_exn (A.solve_status ?execution params ~w)).A.r

let simulate ~polling ~w =
  let spec =
    Spec.all_to_all ~polling ~nodes:32 ~work:(D.Exponential w)
      ~handler:(D.Exponential 200.) ~wire:(D.Constant 40.) ()
  in
  Metrics.mean_response (Machine.run ~spec ~cycles:25_000 ()).Machine.metrics

let () =
  let params = Lopc.Params.create ~c2:1. ~p:32 ~st:40. ~so:200. () in
  Printf.printf "all-to-all on P=32, So=200, St=40, exponential handlers\n\n";
  Printf.printf "%6s  %12s  %10s  %12s  %10s  %10s\n" "W" "interrupt R" "(sim)"
    "polling R" "(sim)" "winner";
  List.iter
    (fun w ->
      let ri = cycle_time params ~w in
      let rp = cycle_time ~execution:A.Polling params ~w in
      Printf.printf "%6.0f  %12.1f  %10.1f  %12.1f  %10.1f  %10s\n" w ri
        (simulate ~polling:false ~w) rp (simulate ~polling:true ~w)
        (if rp < ri then "polling" else "interrupt"))
    [ 0.; 50.; 100.; 200.; 400.; 800.; 1600.; 3200. ];
  (* Locate the model's crossover point. *)
  let crossover =
    Lopc_numerics.Roots.brent ~tol:0.5
      ~f:(fun w -> cycle_time ~execution:A.Polling params ~w -. cycle_time params ~w)
      1. 3200.
  in
  Printf.printf
    "\nmodel crossover at W ~ %.0f cycles: finer-grain codes prefer polling\n\
     (nothing to preempt, handlers already saturate the processor), while\n\
     coarser-grain codes need interrupts so requests are not stuck behind\n\
     long work quanta. A protocol processor (shared memory) dominates both:\n\
     R = %.1f at W=%.0f vs interrupt %.1f and polling %.1f.\n"
    crossover
    (cycle_time ~execution:A.Protocol_processor params ~w:crossover)
    crossover
    (cycle_time params ~w:crossover)
    (cycle_time ~execution:A.Polling params ~w:crossover)
