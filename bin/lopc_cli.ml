(* Command-line interface to the LoPC model and simulator.

   Subcommands:
     predict    solve the analytical model for a workload
     simulate   run the event-driven simulator on the same workload
     validate   model vs simulator across a workload grid
     sweep      regenerate the paper's tables and figures (all, or the named ones)

   Examples:
     lopc_cli predict -p 32 --st 40 --so 200 --c2 0 -w 1000
     lopc_cli predict --pattern client-server=5 -p 32 --so 131 -w 1000
     lopc_cli predict --pattern client-server --optimal-servers -p 32 --so 131 -w 1000
     lopc_cli simulate --pattern hotspot=0:0.3 -p 16 -w 1000 --cycles 50000
     lopc_cli validate -p 16
     lopc_cli sweep fig6.2 --csv out/
     lopc_cli sweep --quick --jobs 4

   Exit codes distinguish why a run produced no answer (scripts and CI
   route on them): 0 success, 2 usage or parameter error, 3 solver
   diverged, 4 model saturated (no steady state), 5 a budget (--fuel or
   --max-seconds) stopped the run. *)

open Cmdliner

module A = Lopc.All_to_all
module CS = Lopc.Client_server
module G = Lopc.General
module FM = Lopc.Fault_model
module Fixed_point = Lopc_numerics.Fixed_point
module D = Lopc_dist.Distribution
module Pattern = Lopc_workloads.Pattern
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Fault = Lopc_activemsg.Fault
module Welford = Lopc_stats.Welford
module Recorder = Lopc_obs.Recorder
module Sim_probe = Lopc_obs.Sim_probe
module Budget = Lopc_robust.Budget
module Cancel = Lopc_robust.Cancel
module Experiments = Lopc_repro.Experiments
module Parallel = Lopc_repro.Parallel
module Table = Lopc_repro.Table

(* --- exit-code taxonomy ---------------------------------------------------- *)

let exit_usage = 2
let exit_diverged = 3
let exit_saturated = 4
let exit_exhausted = 5

let exits =
  [
    Cmd.Exit.info ~doc:"on success." Cmd.Exit.ok;
    Cmd.Exit.info ~doc:"on usage or parameter errors." exit_usage;
    Cmd.Exit.info ~doc:"when a solver diverges (no fixed point found)." exit_diverged;
    Cmd.Exit.info ~doc:"when the model is saturated (no steady state exists)."
      exit_saturated;
    Cmd.Exit.info
      ~doc:"when a budget ($(b,--fuel) or $(b,--max-seconds)) stopped the run."
      exit_exhausted;
    Cmd.Exit.info ~doc:"on an unexpected internal error." Cmd.Exit.internal_error;
  ]

let status_exit_code = function
  | Fixed_point.Converged _ -> 0
  | Fixed_point.Diverged _ -> exit_diverged
  | Fixed_point.Saturated _ -> exit_saturated
  | Fixed_point.Exhausted _ -> exit_exhausted

(* Solver failure: the structured status plus an actionable hint, to
   stderr, mapped onto the exit taxonomy. *)
let solver_failure ~what status =
  let hint =
    match status with
    | Fixed_point.Saturated { station; utilization } ->
      Printf.sprintf
        "station %d is saturated (utilization %.3f): the offered load exceeds its \
         capacity, so no steady state exists; increase W or reduce the per-request \
         service demand"
        station utilization
    | Fixed_point.Diverged { iters; residual } ->
      Printf.sprintf
        "no fixed point after %d iterations (last residual %.3g); the parameters \
         may sit outside the model's regime"
        iters residual
    | Fixed_point.Exhausted { iters; reason } ->
      Printf.sprintf "the budget stopped the solver after %d iterations (%s); \
                      raise --fuel or --max-seconds"
        iters (Budget.reason_to_string reason)
    | Fixed_point.Converged { iters } ->
      Printf.sprintf "converged after %d iterations" iters
  in
  Format.eprintf "%s: %s@.  %s@." what (Fixed_point.status_to_string status) hint;
  `Ok (status_exit_code status)

(* --- range-checked flag values ---------------------------------------------- *)

(* A converter that accepts only the values [ok] admits: an out-of-range
   flag is a parse error naming the flag, which exits 2 like any other
   usage error. *)
let checked parse print ~expected ok =
  let parse s =
    match parse s with
    | Some v when ok v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, print)

let positive_int =
  checked int_of_string_opt Format.pp_print_int ~expected:"a positive integer" (fun n ->
      n >= 1)

let non_negative_int =
  checked int_of_string_opt Format.pp_print_int ~expected:"a non-negative integer"
    (fun n -> n >= 0)

let positive_seconds =
  checked float_of_string_opt Format.pp_print_float
    ~expected:"a positive, finite number of seconds" (fun t ->
      Float.is_finite t && t > 0.)

(* --- budgets and the wall-clock watchdog ----------------------------------- *)

let fuel_arg =
  Arg.(
    value & opt (some non_negative_int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Deterministic computation budget: solver iterations (predict) or \
           simulated events (simulate). Exhaustion stops the run gracefully \
           with exit code 5. Unlike --max-seconds, the outcome for a given \
           fuel is reproducible.")

let max_seconds_arg =
  Arg.(
    value & opt (some positive_seconds) None
    & info [ "max-seconds" ] ~docv:"T"
        ~doc:
          "Wall-clock watchdog: cancel the run after $(docv) seconds (exit \
           code 5). Where the run stops depends on machine speed — for \
           reproducible cutoffs use --fuel.")

(* The wall-clock side lives here in bin/, not in the libraries: a spawned
   domain polls the deadline and flips the cancellation token the solver's
   budget polls, so library results never depend on timing. *)
let with_watchdog ?max_seconds cancel f =
  match max_seconds with
  | None -> f ()
  | Some limit ->
    let stop = Atomic.make false in
    let watchdog =
      Domain.spawn (fun () ->
          let deadline = Unix.gettimeofday () +. limit in
          let rec poll () =
            if Atomic.get stop then ()
            else if Unix.gettimeofday () >= deadline then Cancel.cancel cancel
            else begin
              Unix.sleepf 0.05;
              poll ()
            end
          in
          poll ())
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join watchdog)
      f

(* A budget exists as soon as either limit is requested; with only
   --max-seconds it is pure cancellation (unlimited fuel). *)
let budget_of ~fuel ~max_seconds ~cancel =
  match (fuel, max_seconds) with
  | None, None -> None
  | Some fuel, _ -> Some (Budget.create ~fuel ~cancel ())
  | None, Some _ -> Some (Budget.create ~cancel ())

(* --- shared argument definitions ------------------------------------------ *)

let p_arg =
  Arg.(value & opt int 32 & info [ "p"; "processors" ] ~docv:"P" ~doc:"Number of processors.")

let st_arg =
  Arg.(value & opt float 40. & info [ "st"; "latency" ] ~docv:"ST" ~doc:"Wire latency (LogP L).")

let so_arg =
  Arg.(
    value & opt float 200.
    & info [ "so"; "handler" ] ~docv:"SO" ~doc:"Handler occupancy (LogP o).")

let c2_arg =
  Arg.(
    value & opt float 1.
    & info [ "c2" ] ~docv:"C2" ~doc:"Squared coefficient of variation of handler time.")

let w_arg =
  Arg.(
    value & opt float 1000.
    & info [ "w"; "work" ] ~docv:"W" ~doc:"Average local work between requests.")

let pp_arg =
  Arg.(
    value & flag
    & info [ "protocol-processor" ]
        ~doc:"Model a shared-memory machine with per-node protocol processors.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let cycles_arg =
  Arg.(value & opt int 50_000 & info [ "cycles" ] ~doc:"Measured simulation cycles.")

let pattern_arg =
  Arg.(
    value
    & opt string "all-to-all"
    & info [ "pattern" ] ~docv:"PATTERN"
        ~doc:
          "Workload: $(b,all-to-all), $(b,staggered), $(b,client-server=K), \
           $(b,hotspot=NODE:FRACTION) or $(b,multi-hop=H).")

let parse_pattern ~nodes s =
  let fail msg = `Error (false, msg) in
  let split_eq s =
    match String.index_opt s '=' with
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (s, None)
  in
  let parsed =
    match split_eq s with
    | "all-to-all", None -> `Ok Pattern.All_to_all
    | "staggered", None -> `Ok Pattern.All_to_all_staggered
    | "client-server", Some k -> (
      match int_of_string_opt k with
      | Some servers -> `Ok (Pattern.Client_server { servers })
      | None -> fail "client-server=K needs an integer K")
    | "client-server", None ->
      (* A placeholder; callers that support --optimal-servers replace it. *)
      `Ok (Pattern.Client_server { servers = max 1 (nodes / 4) })
    | "hotspot", Some spec -> (
      match String.split_on_char ':' spec with
      | [ node; fraction ] -> (
        match (int_of_string_opt node, float_of_string_opt fraction) with
        | Some hot, Some fraction -> `Ok (Pattern.Hotspot { hot; fraction })
        | _ -> fail "hotspot=NODE:FRACTION needs an int and a float")
      | _ -> fail "hotspot=NODE:FRACTION needs both fields")
    | "multi-hop", Some h -> (
      match int_of_string_opt h with
      | Some hops -> `Ok (Pattern.Multi_hop { hops })
      | None -> fail "multi-hop=H needs an integer H")
    | other, _ -> fail (Printf.sprintf "unknown pattern %S" other)
  in
  (* The same check [Pattern.to_spec] makes, so predict rejects every
     pattern that simulate and trace reject, with the same message. *)
  match parsed with
  | `Error _ as e -> e
  | `Ok pat -> (
    match Pattern.validate ~nodes pat with
    | Ok pat -> `Ok pat
    | Error reason -> fail ("Pattern: " ^ reason))

let params_of ~p ~st ~so ~c2 =
  try `Ok (Lopc.Params.create ~c2 ~p ~st ~so ())
  with Invalid_argument msg -> `Error (false, msg)

(* --- fault flags ----------------------------------------------------------- *)

let drop_arg =
  Arg.(
    value & opt float 0.
    & info [ "drop" ] ~docv:"L" ~doc:"Per-traversal message loss probability.")

let duplicate_arg =
  Arg.(
    value & opt float 0.
    & info [ "duplicate" ] ~docv:"D" ~doc:"Per-traversal message duplication probability.")

let delay_epsilon_arg =
  Arg.(
    value & opt float 0.
    & info [ "delay-epsilon" ] ~docv:"EPS"
        ~doc:"Probability a traversal samples the delay-spike wire distribution.")

let spike_mean_arg =
  Arg.(
    value & opt (some float) None
    & info [ "spike-mean" ] ~docv:"MEAN"
        ~doc:"Mean of the exponential delay-spike distribution (default 10 St).")

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"T"
        ~doc:
          "Base retransmission timeout. Setting it enables the fault layer even \
           with zero fault probabilities; default when other fault flags are set \
           is 8(W + 2 St + 4 So).")

let backoff_arg =
  Arg.(
    value & opt string "fixed"
    & info [ "backoff" ] ~docv:"SCHEDULE"
        ~doc:"Retry schedule: $(b,fixed), $(b,exp:FACTOR:CAP) or $(b,jitter:SPREAD).")

let retries_arg =
  Arg.(
    value & opt int 8
    & info [ "retries" ] ~docv:"B" ~doc:"Retry budget per request (max tries).")

let parse_backoff s =
  match String.split_on_char ':' s with
  | [ "fixed" ] -> Ok Fault.Fixed
  | [ "exp"; f; c ] -> (
    match (float_of_string_opt f, float_of_string_opt c) with
    | Some factor, Some cap -> Ok (Fault.Exponential { factor; cap })
    | _ -> Error "--backoff exp:FACTOR:CAP needs two floats")
  | [ "jitter"; spread ] -> (
    match float_of_string_opt spread with
    | Some spread -> Ok (Fault.Jittered { spread })
    | None -> Error "--backoff jitter:SPREAD needs a float")
  | _ -> Error (Printf.sprintf "unknown --backoff %S (want fixed, exp:F:C or jitter:S)" s)

(* [Ok None] when every fault flag is at its no-fault default: the fault layer
   engages when any probability is positive or --timeout is given explicitly.
   The config is validated here, so predict and simulate reject the same
   flags. *)
let fault_of ~st ~so ~w ~drop ~duplicate ~delay_epsilon ~spike_mean ~timeout ~backoff
    ~retries =
  if drop <= 0. && duplicate <= 0. && delay_epsilon <= 0. && timeout = None then Ok None
  else
    match parse_backoff backoff with
    | Error _ as e -> e
    | Ok backoff ->
      let timeout =
        match timeout with
        | Some t -> t
        | None -> 8. *. (w +. (2. *. st) +. (4. *. so))
      in
      let spike_mean = Option.value spike_mean ~default:(10. *. st) in
      Fault.validate
        (Fault.create ~drop ~duplicate ~delay_epsilon
           ~delay_spike:(D.Exponential spike_mean) ~backoff ~max_tries:retries ~timeout ())
      |> Result.map Option.some

(* --- predict --------------------------------------------------------------- *)

let print_all_to_all ?budget params ~w ~execution =
  match A.solve_status ?budget ~execution params ~w with
  | None, status -> solver_failure ~what:"all-to-all solver" status
  | Some s, status ->
    let mode =
      match execution with
      | A.Interrupt -> ""
      | A.Polling -> ", polling"
      | A.Protocol_processor -> ", protocol processor"
    in
    Format.printf "LoPC all-to-all prediction (%a, W=%g%s)@." Lopc.Params.pp params w mode;
    Format.printf "  solver outcome      = %s@." (Fixed_point.status_to_string status);
    Format.printf "  cycle time R        = %.2f cycles@." s.A.r;
    Format.printf "    thread Rw         = %.2f@." s.A.rw;
    Format.printf "    network 2 St      = %.2f@." (2. *. params.Lopc.Params.st);
    Format.printf "    request Rq        = %.2f@." s.A.rq;
    Format.printf "    reply Ry          = %.2f@." s.A.ry;
    Format.printf "  contention C        = %.2f (%.1f%% of R, ~%.2f handlers)@."
      s.A.contention
      (100. *. s.A.contention /. s.A.r)
      (s.A.contention /. params.Lopc.Params.so);
    Format.printf "  bounds (Eq 5.12)    = (%.2f, %.2f)@." (A.lower_bound params ~w)
      (A.upper_bound params ~w);
    Format.printf "  LogP (naive)        = %.2f@." (Lopc.Logp.cycle_time params ~w);
    Format.printf "  throughput X        = %.6f requests/cycle@." s.A.throughput;
    Format.printf "  Qq=%.4f Qy=%.4f Uq=%.4f Uy=%.4f@." s.A.qq s.A.qy s.A.uq s.A.uy;
    `Ok 0

let print_fault_model ?budget fault params ~w =
  let config =
    FM.config ~drop:fault.Fault.drop ~duplicate:fault.Fault.duplicate
      ~delay_epsilon:fault.Fault.delay_epsilon
      ~spike_mean:(D.mean fault.Fault.delay_spike)
      ~backoff:(fun try_ -> Fault.timeout_multiplier fault ~try_)
      ~max_tries:fault.Fault.max_tries ~timeout:fault.Fault.timeout ()
  in
  match FM.solve_status ?budget config params ~w with
  | None, status -> solver_failure ~what:"fault model solver" status
  | Some s, status ->
    Format.printf "LoPC faulty all-to-all prediction (%a, W=%g)@." Lopc.Params.pp params w;
    Format.printf "  fault: drop=%g dup=%g eps=%g timeout=%g retries=%d@."
      fault.Fault.drop fault.Fault.duplicate fault.Fault.delay_epsilon
      fault.Fault.timeout fault.Fault.max_tries;
    Format.printf "  solver outcome      = %s@." (Fixed_point.status_to_string status);
    Format.printf "  cycle time R        = %.2f cycles@." s.FM.r;
    Format.printf "    thread Rw         = %.2f@." s.FM.terms.rw;
    Format.printf "    timeout wait      = %.2f@." s.FM.timeout_wait;
    Format.printf "    request Rq        = %.2f@." s.FM.terms.rq;
    Format.printf "    reply Ry          = %.2f@." s.FM.terms.ry;
    Format.printf "  tries per cycle     = %.4f (handler load %.4f)@." s.FM.tries s.FM.load;
    Format.printf "  failure rate q^B    = %.3e@." s.FM.failure_rate;
    Format.printf "  goodput X           = %.6f requests/cycle@." s.FM.throughput;
    Format.printf "  Qq=%.4f Qy=%.4f Uq=%.4f Uy=%.4f@." s.FM.terms.qq s.FM.terms.qy
      s.FM.terms.uq s.FM.terms.uy;
    `Ok 0

let print_client_server params ~w ~servers =
  let s = CS.throughput params ~w ~servers in
  Format.printf "LoPC client-server prediction (%a, W=%g, Ps=%d)@." Lopc.Params.pp params
    w servers;
  Format.printf "  throughput X        = %.6f chunks/cycle@." s.CS.throughput;
  Format.printf "  client cycle R      = %.2f cycles@." s.CS.cycle_time;
  Format.printf "  server residence Rs = %.2f (queue %.3f, utilization %.3f)@."
    s.CS.server_residence s.CS.server_queue s.CS.server_util;
  let best = CS.optimal_servers params ~w in
  Format.printf "  optimal allocation  = %d servers (Eq 6.8 real %.2f)@." best
    (CS.optimal_servers_real params ~w);
  Format.printf "  LogP bounds         = server %.6f, client %.6f@."
    (Lopc.Logp.server_bound params ~servers)
    (Lopc.Logp.client_bound params ~w ~clients:(params.Lopc.Params.p - servers))

let print_general ?budget params ~w ~protocol_processor pattern =
  let net = Pattern.to_general ~protocol_processor params ~w pattern in
  match G.solve_status ?budget net with
  | None, status -> solver_failure ~what:"general solver" status
  | Some s, _ ->
    Format.printf "LoPC general (Appendix A) prediction: %s@." (Pattern.description pattern);
    Format.printf "  system throughput   = %.6f requests/cycle@." s.G.system_throughput;
    Array.iteri
      (fun k (ns : G.node_solution) ->
        let cycle = s.G.cycle_times.(k) in
        if Float.is_nan cycle then
          Format.printf "  node %2d (server): Qq=%.3f Uq=%.3f@." k ns.G.qq ns.G.uq
        else
          Format.printf "  node %2d: R=%.1f Qq=%.3f Uq=%.3f@." k cycle ns.G.qq ns.G.uq)
      s.G.node_solutions;
    `Ok 0

let polling_arg =
  Arg.(
    value & flag
    & info [ "polling" ]
        ~doc:"Model polling-based message notification (LogP's CM-5 assumption).")

let predict_cmd =
  let run p st so c2 w pp polling pattern optimal drop duplicate delay_epsilon
      spike_mean timeout backoff retries fuel max_seconds =
    match params_of ~p ~st ~so ~c2 with
    | `Error _ as e -> e
    | `Ok params -> (
      match parse_pattern ~nodes:p pattern with
      | `Error _ as e -> e
      | `Ok pat -> (
        match
          fault_of ~st ~so ~w ~drop ~duplicate ~delay_epsilon ~spike_mean ~timeout
            ~backoff ~retries
        with
        | Error msg -> `Error (false, msg)
        | Ok fault -> (
          let cancel = Cancel.create () in
          let budget = budget_of ~fuel ~max_seconds ~cancel in
          try
            with_watchdog ?max_seconds cancel (fun () ->
                match (fault, pat) with
                | Some fault, Pattern.All_to_all when not (pp || polling) ->
                  print_fault_model ?budget fault params ~w
                | Some _, _ ->
                  `Error
                    ( false,
                      "fault prediction models the interrupt-driven all-to-all \
                       workload only" )
                | None, (Pattern.All_to_all | Pattern.All_to_all_staggered) ->
                  let execution =
                    if pp then A.Protocol_processor
                    else if polling then A.Polling
                    else A.Interrupt
                  in
                  print_all_to_all ?budget params ~w ~execution
                | None, Pattern.Client_server { servers } ->
                  let servers =
                    if optimal then CS.optimal_servers params ~w else servers
                  in
                  print_client_server params ~w ~servers;
                  `Ok 0
                | None, (Pattern.Hotspot _ | Pattern.Multi_hop _) ->
                  print_general ?budget params ~w ~protocol_processor:pp pat)
          with
          | Invalid_argument msg -> `Error (false, msg)
          | Fixed_point.Diverged msg ->
            Format.eprintf "solver outcome: %s@." msg;
            `Ok exit_diverged)))
  in
  let optimal_arg =
    Arg.(
      value & flag
      & info [ "optimal-servers" ]
          ~doc:"For client-server: use the Eq 6.8 optimal allocation.")
  in
  Cmd.v
    (Cmd.info "predict" ~exits ~doc:"Solve the LoPC model analytically")
    Term.(
      ret
        (const run $ p_arg $ st_arg $ so_arg $ c2_arg $ w_arg $ pp_arg $ polling_arg
        $ pattern_arg $ optimal_arg $ drop_arg $ duplicate_arg $ delay_epsilon_arg
        $ spike_mean_arg $ timeout_arg $ backoff_arg $ retries_arg $ fuel_arg
        $ max_seconds_arg))

(* --- simulate --------------------------------------------------------------- *)

let simulate_cmd =
  let run p st so c2 w pp polling pattern seed cycles trace drop duplicate
      delay_epsilon spike_mean timeout backoff retries fuel max_seconds =
    match (params_of ~p ~st ~so ~c2, parse_pattern ~nodes:p pattern) with
    | (`Error _ as e), _ | _, (`Error _ as e) -> e
    | `Ok _, `Ok pat -> (
      match
        fault_of ~st ~so ~w ~drop ~duplicate ~delay_epsilon ~spike_mean ~timeout
          ~backoff ~retries
      with
      | Error msg -> `Error (false, msg)
      | Ok fault -> (
      try
        let cancel = Cancel.create () in
        let budget = budget_of ~fuel ~max_seconds ~cancel in
        let spec =
          Pattern.to_spec ~protocol_processor:pp ~polling ?fault ~nodes:p
            ~work:(D.of_mean_scv ~mean:w ~scv:1.)
            ~handler:(D.of_mean_scv ~mean:so ~scv:c2)
            ~wire:(D.Constant st) pat
        in
        let recorder, obs =
          match trace with
          | None -> (None, None)
          | Some _ ->
            let recorder = Recorder.create () in
            (Some recorder, Some (Sim_probe.create ~recorder ~nodes:p ()))
        in
        let r =
          with_watchdog ?max_seconds cancel (fun () ->
              Machine.run ~seed ~spec ~cycles ?obs ?budget ())
        in
        let m = r.Machine.metrics in
        if
          Option.is_none r.Machine.interrupted
          && not (Float.is_finite (Metrics.mean_response m))
        then
          invalid_arg
            (Printf.sprintf
               "no cycle both started and finished inside the measurement window \
                (P=%d, --cycles %d): raise --cycles well above P"
               p cycles);
        (match (trace, recorder) with
        | Some path, Some recorder ->
          Recorder.write_file recorder path;
          Format.printf "trace written to %s (%d events, %d dropped)@." path
            (Recorder.length recorder) (Recorder.dropped recorder)
        | _ -> ());
        Format.printf "simulated %s: P=%d W=%g So=%g St=%g C2=%g seed=%d@."
          (Pattern.description pat) p w so st c2 seed;
        Format.printf "  measured cycles     = %d (%d events, final time %.0f)@."
          m.Metrics.cycles r.Machine.events r.Machine.final_time;
        Format.printf "  mean cycle time R   = %.2f +- %.2f (95%%)@."
          (Metrics.mean_response m)
          (Welford.confidence_interval m.Metrics.response);
        Format.printf "    Rw=%.2f Rq=%.2f Ry=%.2f wire=%.2f@."
          (Welford.mean m.Metrics.rw) (Welford.mean m.Metrics.rq)
          (Welford.mean m.Metrics.ry)
          (Welford.mean m.Metrics.wire_time);
        Format.printf "  throughput X        = %.6f cycles/cycle@." (Metrics.throughput m);
        Format.printf "  Qq=%.4f Qy=%.4f Uq=%.4f Uy=%.4f Uthread=%.4f@."
          (Metrics.avg_request_queue m) (Metrics.avg_reply_queue m)
          (Metrics.avg_request_util m) (Metrics.avg_reply_util m)
          (Metrics.avg_thread_util m);
        Format.printf "  R percentiles       = p50 %.1f, p90 %.1f, p95 %.1f, p99 %.1f@."
          (Metrics.response_percentile m 0.5)
          (Metrics.response_percentile m 0.9)
          (Metrics.response_percentile m 0.95)
          (Metrics.response_percentile m 0.99);
        (match fault with
        | None -> ()
        | Some _ ->
          Format.printf
            "  fault: tries=%.4f failed=%d retrans=%d dropped=%d dup=%d stale=%d@."
            (Metrics.mean_tries m) m.Metrics.failed_cycles m.Metrics.retransmits
            m.Metrics.dropped_messages m.Metrics.duplicate_deliveries
            m.Metrics.stale_replies;
          Format.printf "  goodput/offered     = %.4f (goodput %.6f, offered %.6f)@."
            (Metrics.goodput m /. Metrics.offered_load m)
            (Metrics.goodput m) (Metrics.offered_load m));
        (match r.Machine.interrupted with
        | None -> `Ok 0
        | Some reason ->
          (* Metrics above are whatever accumulated before the stop. *)
          Format.eprintf "simulation interrupted: %s@."
            (Budget.reason_to_string reason);
          `Ok exit_exhausted)
      with Invalid_argument msg | Sys_error msg -> `Error (false, msg)))
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured trace of the run to $(docv): Chrome trace_event \
             JSON when $(docv) ends in .json (load in chrome://tracing or \
             Perfetto), a compact text format otherwise. Timestamps are \
             simulated cycles; tracing never perturbs the simulation.")
  in
  Cmd.v
    (Cmd.info "simulate" ~exits ~doc:"Run the event-driven simulator")
    Term.(
      ret
        (const run $ p_arg $ st_arg $ so_arg $ c2_arg $ w_arg $ pp_arg $ polling_arg
        $ pattern_arg $ seed_arg $ cycles_arg $ trace_arg $ drop_arg $ duplicate_arg
        $ delay_epsilon_arg $ spike_mean_arg $ timeout_arg $ backoff_arg $ retries_arg
        $ fuel_arg $ max_seconds_arg))

(* --- validate ---------------------------------------------------------------- *)

let validate_cmd =
  let run p seed cycles =
    let cases =
      [
        ("all-to-all W=0 C2=0", Pattern.All_to_all, 0., 0.);
        ("all-to-all W=1000 C2=0", Pattern.All_to_all, 1000., 0.);
        ("all-to-all W=1000 C2=1", Pattern.All_to_all, 1000., 1.);
        ("client-server Ps=P/8", Pattern.Client_server { servers = max 1 (p / 8) }, 1000., 1.);
        ("hotspot 30%", Pattern.Hotspot { hot = 0; fraction = 0.3 }, 1000., 1.);
        ("multi-hop 2", Pattern.Multi_hop { hops = 2 }, 1000., 1.);
      ]
    in
    let exception Solver_failed of string * Fixed_point.status in
    let model (name, pat, w, c2) =
      let params = Lopc.Params.create ~c2 ~p ~st:40. ~so:200. () in
      match G.solve_status (Pattern.to_general params ~w pat) with
      | Some s, _ -> s.G.system_throughput
      | None, status -> raise (Solver_failed (name, status))
    in
    let simulate (name, pat, w, c2) model =
      let spec =
        Pattern.to_spec ~nodes:p ~work:(D.of_mean_scv ~mean:w ~scv:1.)
          ~handler:(D.of_mean_scv ~mean:200. ~scv:c2) ~wire:(D.Constant 40.) pat
      in
      (name, model, Metrics.throughput (Machine.run ~seed ~spec ~cycles ()).Machine.metrics)
    in
    (* Every model is solved before any simulation runs, and every case
       runs before anything is printed, so a solver failure exits through
       the taxonomy as in predict, and a rejected parameter is a one-line
       usage error rather than a half-printed table. *)
    match
      let models = List.map model cases in
      List.map2 simulate cases models
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | exception Solver_failed (name, status) ->
      solver_failure ~what:("general solver, case " ^ name) status
    | rows ->
      Format.printf "model vs simulator, P=%d, So=200, St=40, %d cycles/case@.@." p cycles;
      Format.printf "%-28s %12s %12s %8s@." "case" "model X" "sim X" "error";
      List.iter
        (fun (name, model, sim) ->
          Format.printf "%-28s %12.6f %12.6f %+7.2f%%@." name model sim
            (100. *. (model -. sim) /. sim))
        rows;
      `Ok 0
  in
  Cmd.v
    (Cmd.info "validate" ~exits ~doc:"Check the model against the simulator on a workload grid")
    Term.(ret (const run $ p_arg $ seed_arg $ cycles_arg))

(* --- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let count_arg =
    Arg.(value & opt int 16 & info [ "count" ] ~doc:"Cycles to trace.")
  in
  let run p st so c2 w pp polling pattern seed count =
    match (params_of ~p ~st ~so ~c2, parse_pattern ~nodes:p pattern) with
    | (`Error _ as e), _ | _, (`Error _ as e) -> e
    | `Ok _, `Ok pat -> (
      try
        let spec =
          Pattern.to_spec ~protocol_processor:pp ~polling ~nodes:p
            ~work:(D.of_mean_scv ~mean:w ~scv:1.)
            ~handler:(D.of_mean_scv ~mean:so ~scv:c2)
            ~wire:(D.Constant st) pat
        in
        let collector, observe = Lopc_activemsg.Trace.collector ~limit:count () in
        ignore
          (Machine.run ~seed ~warmup_cycles:(max 100 (count * 4)) ~on_cycle:observe
             ~spec ~cycles:count ());
        Format.printf "%a@." (Lopc_activemsg.Trace.pp_timeline ~width:60)
          (Lopc_activemsg.Trace.reports collector);
        `Ok 0
      with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "trace" ~exits ~doc:"Print ASCII timelines of simulated cycles")
    Term.(
      ret
        (const run $ p_arg $ st_arg $ so_arg $ c2_arg $ w_arg $ pp_arg $ polling_arg
        $ pattern_arg $ seed_arg $ count_arg))

(* --- calibrate ----------------------------------------------------------------- *)

let calibrate_cmd =
  let points_arg =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "point" ] ~docv:"W:R"
          ~doc:"A measurement: work per request and measured cycle time. Repeatable.")
  in
  let fixed_st_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "fixed-st" ] ~docv:"ST"
          ~doc:"Pin the wire latency (e.g. measured by ping-pong) and fit only So.")
  in
  let run p c2 points fixed_st =
    let parse s =
      match String.split_on_char ':' s with
      | [ w; r ] -> (
        match (float_of_string_opt w, float_of_string_opt r) with
        | Some w, Some r -> Ok (w, r)
        | _ -> Error s)
      | _ -> Error s
    in
    let parsed = List.map parse points in
    match List.find_opt Result.is_error parsed with
    | Some (Error bad) -> `Error (false, Printf.sprintf "malformed --point %S (want W:R)" bad)
    | Some (Ok _) | None -> (
      let observations = List.filter_map Result.to_option parsed in
      try
        let f = Lopc.Calibrate.fit ~c2 ?fixed_st ~p ~observations () in
        Format.printf "fitted parameters: %a@." Lopc.Params.pp f.Lopc.Calibrate.params;
        Format.printf "  rms residual %.2f cycles (%.2f%% of signal)@."
          f.Lopc.Calibrate.residual
          (100. *. f.Lopc.Calibrate.relative_residual);
        Format.printf "  %10s %12s %12s@." "W" "measured" "fitted";
        List.iter
          (fun (w, measured, fitted) ->
            Format.printf "  %10g %12.1f %12.1f@." w measured fitted)
          (Lopc.Calibrate.predictions f ~observations);
        (match fixed_st with
        | Some _ -> ()
        | None ->
          Format.printf
            "  note: St and So are nearly degenerate from R(W) alone; pass\n\
            \        --fixed-st with a ping-pong-measured latency to identify So.@.");
        `Ok 0
      with Invalid_argument msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "calibrate" ~exits
       ~doc:"Fit St and So to measured all-to-all cycle times")
    Term.(ret (const run $ p_arg $ c2_arg $ points_arg $ fixed_st_arg))

(* --- sweep ------------------------------------------------------------------- *)

let sweep_cmd =
  let names = List.map fst (Experiments.plans ()) in
  let artifacts_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            (Printf.sprintf
               "Artifacts to regenerate, in order, each %s; none means all of them."
               (Arg.doc_alts names)))
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Shorter simulations.") in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as $(docv)/ARTIFACT.csv.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt positive_int (Domain.recommended_domain_count ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Fan each artifact's sweep points across $(docv) domains. Tables are \
             byte-identical at any $(docv).")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Write one Chrome trace per simulated sweep point of fig5.2, fig6.2 \
             and fault into $(docv), timestamped in simulated cycles.")
  in
  let ensure_dir = function
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | Some _ | None -> ()
  in
  let emit ~csv name table =
    Format.printf "%a@." Table.pp table;
    match csv with
    | None -> ()
    | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (Table.to_csv table);
      close_out oc;
      Format.printf "(csv written to %s)@.@." path
  in
  (* Tables go to stdout and timing to stderr, so stdout is
     byte-comparable across runs and --jobs counts. Each artifact gets a
     fresh plan: plans capture mutable PRNG streams and are single-shot. *)
  let run selected quick csv jobs trace_dir =
    let fidelity = if quick then Experiments.Quick else Experiments.Full in
    let selected = if selected = [] then names else selected in
    try
      ensure_dir csv;
      ensure_dir trace_dir;
      Parallel.with_pool ~jobs (fun pool ->
          List.iter
            (fun name ->
              let plan = List.assoc name (Experiments.plans ~fidelity ?trace_dir ()) in
              let t0 = Unix.gettimeofday () in
              let table = Experiments.run_plan ~pool plan in
              let seconds = Unix.gettimeofday () -. t0 in
              emit ~csv name table;
              Printf.eprintf "[timing] %-20s %4d tasks  %8.2fs\n%!" name
                (Experiments.task_count plan) seconds)
            selected);
      `Ok 0
    with
    | Fixed_point.Diverged msg ->
      Format.eprintf "solver outcome: %s@." msg;
      `Ok exit_diverged
    | Invalid_argument msg | Sys_error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "sweep" ~exits ~doc:"Regenerate the paper's tables and figures")
    Term.(ret (const run $ artifacts_arg $ quick_arg $ csv_arg $ jobs_arg $ trace_dir_arg))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "lopc_cli" ~version:"1.0.0" ~exits
      ~doc:"LoPC: contention-aware cost modeling of parallel algorithms"
  in
  let code =
    Cmd.eval' ~term_err:exit_usage
      (Cmd.group ~default info
         [ predict_cmd; simulate_cmd; validate_cmd; sweep_cmd; trace_cmd; calibrate_cmd ])
  in
  (* A malformed command line is a usage error like any other. *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
