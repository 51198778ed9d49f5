(* Fault tolerance: what an unreliable interconnect costs, and how well
   the retry-inflated LoPC model predicts it.

   The paper's machine model assumes a perfectly reliable network. In the
   NOW setting LoPC also claims, messages are dropped, duplicated and
   delayed, and the runtime recovers with timeout + retransmission. This
   example injects those faults into the simulator, predicts the faulty
   cycle time with [Lopc.Fault_model], and shows the graceful-degradation
   side: solvers diagnosing saturation instead of returning garbage.

   Run with:  dune exec examples/fault_tolerance.exe *)

module D = Lopc_dist.Distribution
module Fault = Lopc_activemsg.Fault
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Pattern = Lopc_workloads.Pattern
module Fixed_point = Lopc_numerics.Fixed_point

let nodes = 16
let w = 1000.
let st = 40.
let so = 200.
let timeout = 20_000.
let cycles = 30_000

let params = Lopc.Params.create ~c2:1. ~p:nodes ~st ~so ()

let spec fault =
  Pattern.to_spec ?fault ~nodes ~work:(D.Exponential w) ~handler:(D.Exponential so)
    ~wire:(D.Constant st) Pattern.All_to_all

let model_config fault =
  Lopc.Fault_model.config ~drop:fault.Fault.drop ~duplicate:fault.Fault.duplicate
    ~delay_epsilon:fault.Fault.delay_epsilon
    ~spike_mean:(D.mean fault.Fault.delay_spike)
    ~backoff:(fun n -> Fault.timeout_multiplier fault ~try_:n)
    ~max_tries:fault.Fault.max_tries ~timeout:fault.Fault.timeout ()

let () =
  (* Baseline: the reliable machine of §5. *)
  let base = Lopc_numerics.Fixed_point.get_exn (Lopc.All_to_all.solve_status params ~w) in
  let base_sim = Machine.run ~spec:(spec None) ~cycles () in
  Printf.printf "reliable network:          model R = %7.1f   sim R = %7.1f\n"
    base.Lopc.All_to_all.r
    (Metrics.mean_response base_sim.Machine.metrics);

  (* Inject 2%% per-traversal loss, 5%% duplication and occasional delay
     spikes, recovered by exponential backoff capped at 8x. *)
  let fault =
    Fault.create ~drop:0.02 ~duplicate:0.05 ~delay_epsilon:0.05
      ~delay_spike:(D.Exponential (10. *. st))
      ~backoff:(Fault.Exponential { factor = 2.; cap = 8. })
      ~max_tries:10 ~timeout ()
  in
  let predicted =
    Lopc_numerics.Fixed_point.get_exn (Lopc.Fault_model.solve_status (model_config fault) params ~w)
  in
  let sim = Machine.run ~spec:(spec (Some fault)) ~cycles () in
  let metrics = sim.Machine.metrics in
  let measured = Metrics.mean_response metrics in
  Printf.printf "2%% loss + 5%% duplication: model R = %7.1f   sim R = %7.1f   (%+.1f%%)\n\n"
    predicted.Lopc.Fault_model.r measured
    (100. *. (predicted.Lopc.Fault_model.r -. measured) /. measured);

  Printf.printf "what the fault layer did (%d answered cycles):\n" metrics.Metrics.cycles;
  Printf.printf "  retransmits            %8d\n" metrics.Metrics.retransmits;
  Printf.printf "  duplicate deliveries   %8d\n" metrics.Metrics.duplicate_deliveries;
  Printf.printf "  dropped copies         %8d\n" metrics.Metrics.dropped_messages;
  Printf.printf "  stale replies          %8d\n" metrics.Metrics.stale_replies;
  Printf.printf "  abandoned cycles       %8d\n" metrics.Metrics.failed_cycles;
  Printf.printf "  tries per cycle        %8.3f   (model %.3f)\n"
    (Metrics.mean_tries metrics) predicted.Lopc.Fault_model.tries;
  Printf.printf "  goodput / offered load %8.3f\n\n"
    (Metrics.goodput metrics /. Metrics.offered_load metrics);

  (* Graceful degradation: drive the retry inflation until the request
     handlers cannot keep up. The solver reports saturation instead of
     silently iterating to garbage. *)
  Printf.printf "pushing loss towards saturation (W = 0, heavy handlers):\n";
  let hot = Lopc.Params.create ~c2:1. ~p:nodes ~st ~so:2_000. () in
  List.iter
    (fun drop ->
      let c = Lopc.Fault_model.config ~drop ~max_tries:20 ~timeout:1e6 () in
      match Lopc.Fault_model.solve_status c hot ~w:0. with
      | Some s, status ->
        Printf.printf "  drop %4.0f%%  R = %9.1f   %s\n" (100. *. drop)
          s.Lopc.Fault_model.r
          (Fixed_point.status_to_string status)
      | None, status ->
        Printf.printf "  drop %4.0f%%  %s\n" (100. *. drop)
          (Fixed_point.status_to_string status))
    [ 0.; 0.2; 0.4; 0.6; 0.8 ]
