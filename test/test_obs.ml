(* Observability layer tests: golden files for the two trace emitters
   (byte-exact against committed fixtures), span well-nesting and
   begin/end balance over arbitrary simulator configurations, trace
   identity across --jobs settings, the probe's span counts, and the solver
   convergence telemetry (strictly decreasing residuals on a contraction;
   saturating-station identification).

   Regenerate the goldens after an intentional format change with
     OBS_GOLDEN_WRITE=$PWD/test/fixtures dune exec test/test_main.exe -- test obs
   and review the diff. *)

module Recorder = Lopc_obs.Recorder
module Sim_probe = Lopc_obs.Sim_probe
module Solver_probe = Lopc_numerics.Solver_probe
module Fixed_point = Lopc_numerics.Fixed_point
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics
module Pattern = Lopc_workloads.Pattern
module D = Lopc_dist.Distribution
module Params = Lopc.Params
module A = Lopc.All_to_all
module G = Lopc.General
module Station = Lopc_mva.Station
module Amva = Lopc_mva.Amva
module Experiments = Lopc_repro.Experiments
module Parallel = Lopc_repro.Parallel

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* dune runtest runs the binary in _build/default/test (where the dep
   glob places fixtures/); dune exec runs it from the project root. *)
let fixture_path name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" name

(* --- golden files for the emitters --------------------------------------- *)

(* A small recording touching every event kind, every arg type, JSON
   escaping, and the overflow counter (limit 6, 7 emissions). *)
let golden_recorder () =
  let r = Recorder.create ~limit:6 () in
  Recorder.begin_span r ~ts:0. ~track:0 "W";
  Recorder.counter r ~ts:0.5 ~track:1 "queue" 2.;
  Recorder.begin_span r ~ts:1. ~track:1 "Rq";
  Recorder.instant r ~ts:1.25 ~track:0 "retransmit"
    ~args:
      [
        ("value", Recorder.Num 2.125); ("seq", Recorder.Int 7);
        ("why", Recorder.Str "a \"quoted\"\nline\twith\x01controls");
      ];
  Recorder.end_span r ~ts:2.5 ~track:1 "Rq";
  Recorder.end_span r ~ts:3.75 ~track:0 "W";
  (* Past the limit: counted in [dropped], absent from the stream. *)
  Recorder.instant r ~ts:4. ~track:0 "overflowed";
  r

let check_golden name render fixture =
  let rendered = render (golden_recorder ()) in
  match Sys.getenv_opt "OBS_GOLDEN_WRITE" with
  | Some dir ->
    let path = Filename.concat dir fixture in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc rendered);
    Printf.eprintf "golden written: %s\n%!" path
  | None ->
    let expected = read_file (fixture_path fixture) in
    Alcotest.(check string) name expected rendered

let test_chrome_golden () =
  check_golden "chrome emitter is byte-stable"
    (fun r -> Format.asprintf "%a" Recorder.pp_chrome r)
    "obs_chrome.golden.json"

let test_text_golden () =
  check_golden "text emitter is byte-stable"
    (fun r -> Format.asprintf "%a" Recorder.pp_text r)
    "obs_text.golden.txt"

let test_write_file_picks_format () =
  let r = golden_recorder () in
  let json_path = Filename.temp_file "lopc_obs" ".json" in
  let txt_path = Filename.temp_file "lopc_obs" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove json_path;
      Sys.remove txt_path)
    (fun () ->
      Recorder.write_file r json_path;
      Recorder.write_file r txt_path;
      Alcotest.(check string)
        "extension .json selects the Chrome emitter"
        (Format.asprintf "%a" Recorder.pp_chrome r)
        (read_file json_path);
      Alcotest.(check string)
        "any other extension selects the text emitter"
        (Format.asprintf "%a" Recorder.pp_text r)
        (read_file txt_path))

(* --- recorder invariants -------------------------------------------------- *)

let test_recorder_rejects_backwards_time () =
  let r = Recorder.create () in
  Recorder.begin_span r ~ts:10. ~track:0 "W";
  Alcotest.check_raises "time must not run backwards"
    (Invalid_argument "Recorder.emit: timestamp went backwards") (fun () ->
      Recorder.end_span r ~ts:9. ~track:0 "W")

let test_recorder_limit_drops () =
  let r = Recorder.create ~limit:3 () in
  for i = 0 to 9 do
    Recorder.instant r ~ts:(Float.of_int i) ~track:0 "tick"
  done;
  Alcotest.(check int) "holds exactly the limit" 3 (Recorder.length r);
  Alcotest.(check int) "counts the discarded rest" 7 (Recorder.dropped r);
  match Recorder.events r with
  | { Recorder.ts = 0.; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest events are the ones kept"

(* --- span well-nesting over arbitrary machine runs ------------------------ *)

let record_run ~nodes ~w ~so ~protocol_processor ~cycles =
  let recorder = Recorder.create () in
  let obs = Sim_probe.create ~recorder ~nodes () in
  let spec =
    Pattern.to_spec ~protocol_processor ~nodes ~work:(D.Exponential w)
      ~handler:(D.Exponential so) ~wire:(D.Constant 10.) Pattern.All_to_all
  in
  let r = Machine.run ~warmup_cycles:0 ~spec ~cycles ~obs () in
  (recorder, r)

(* Stack discipline per track: every End matches the innermost Begin of
   the same name on its track, and nothing is left open at the end
   ([Sim_probe.finish] ran). Returns an error description, or None. *)
let nesting_violation events =
  let max_track =
    List.fold_left (fun acc (e : Recorder.event) -> max acc e.track) 0 events
  in
  let stacks = Array.make (max_track + 1) [] in
  let problem = ref None in
  List.iter
    (fun (e : Recorder.event) ->
      match e.kind with
      | Recorder.Instant | Recorder.Counter -> ()
      | Recorder.Begin -> stacks.(e.track) <- e.name :: stacks.(e.track)
      | Recorder.End -> (
        match stacks.(e.track) with
        | top :: rest when String.equal top e.name -> stacks.(e.track) <- rest
        | top :: _ ->
          if Option.is_none !problem then
            problem :=
              Some
                (Printf.sprintf "track %d: E %s closes open span %s at t=%g"
                   e.track e.name top e.ts)
        | [] ->
          if Option.is_none !problem then
            problem :=
              Some (Printf.sprintf "track %d: E %s with no open span" e.track e.name)))
    events;
  (match !problem with
  | Some _ -> ()
  | None ->
    Array.iteri
      (fun track -> function
        | [] -> ()
        | names ->
          if Option.is_none !problem then
            problem :=
              Some
                (Printf.sprintf "track %d: %d spans left open (%s)" track
                   (List.length names)
                   (String.concat "," names)))
      stacks);
  !problem

let prop_spans_well_nested =
  QCheck.Test.make ~name:"obs: spans well nested and balanced per track" ~count:10
    QCheck.(
      quad (int_range 2 6) (float_range 0. 800.) (float_range 20. 200.) bool)
    (fun (nodes, w, so, protocol_processor) ->
      let recorder, _ = record_run ~nodes ~w ~so ~protocol_processor ~cycles:200 in
      match nesting_violation (Recorder.events recorder) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_timestamps_monotone =
  QCheck.Test.make ~name:"obs: recorded timestamps never decrease" ~count:6
    QCheck.(pair (int_range 2 6) (float_range 0. 800.))
    (fun (nodes, w) ->
      let recorder, _ =
        record_run ~nodes ~w ~so:100. ~protocol_processor:false ~cycles:150
      in
      let last = ref Float.neg_infinity in
      List.for_all
        (fun (e : Recorder.event) ->
          let ok = e.ts >= !last in
          last := e.ts;
          ok)
        (Recorder.events recorder))

let test_probe_counts_cycles () =
  let recorder, r =
    record_run ~nodes:4 ~w:500. ~so:100. ~protocol_processor:false ~cycles:400
  in
  let cycles =
    List.length
      (List.filter
         (fun (e : Recorder.event) -> e.kind = Recorder.Instant && e.name = "cycle")
         (Recorder.events recorder))
  in
  Alcotest.(check int)
    "probe saw every completed cycle" r.Machine.metrics.Metrics.cycles cycles

(* --- trace identity across --jobs ----------------------------------------- *)

let test_jobs_trace_identity () =
  (* The fault artifact at quick fidelity: small (P=16, 6 points) but
     exercising every emission hook including the fault instants. Point
     tasks own pre-derived streams and per-point recorders, so the
     serial run and the 4-domain run must write byte-identical files. *)
  let sandbox = Filename.temp_file "lopc_obs_jobs" "" in
  Sys.remove sandbox;
  Sys.mkdir sandbox 0o755;
  let j1 = Filename.concat sandbox "trace-j1"
  and j4 = Filename.concat sandbox "trace-j4" in
  let run ~jobs dir =
    Sys.mkdir dir 0o755;
    let plan =
      List.assoc "fault" (Experiments.plans ~fidelity:Quick ~trace_dir:dir ())
    in
    let pool = Parallel.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () -> ignore (Experiments.run_plan ~pool plan))
  in
  run ~jobs:1 j1;
  run ~jobs:4 j4;
  let files = Sys.readdir j1 |> Array.to_list |> List.sort String.compare in
  Alcotest.(check bool) "traces were written" true (List.length files > 0);
  Alcotest.(check (list string))
    "same file set at both job counts" files
    (Sys.readdir j4 |> Array.to_list |> List.sort String.compare);
  List.iter
    (fun f ->
      let a = read_file (Filename.concat j1 f) in
      let b = read_file (Filename.concat j4 f) in
      Alcotest.(check bool)
        (Printf.sprintf "%s identical at --jobs 1 and --jobs 4" f)
        true (String.equal a b))
    files

(* --- series and reservoir ---------------------------------------------------- *)

let feq eps name expected actual =
  if
    not
      (Float.abs (expected -. actual) <= eps
      || Float.abs (expected -. actual) <= eps *. Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let test_series_windows () =
  let s = Series.create ~window:10. () in
  Series.update s ~now:0. 1.;
  Series.update s ~now:5. 3.;
  (* window [0,10): 5 cycles at 1, 5 at 3 -> mean 2 *)
  Series.update s ~now:25. 0.;
  (* window [10,20): all at 3 -> mean 3; [20,25) still open *)
  (match Series.points s with
  | [| (0., w0); (10., w1) |] ->
    feq 1e-12 "first window mean" 2. w0;
    feq 1e-12 "second window mean" 3. w1
  | pts -> Alcotest.failf "expected two closed windows, got %d" (Array.length pts));
  feq 1e-12 "integral splices closed windows and the open one" 65.
    (Series.integral s ~now:25.);
  feq 1e-12 "running average over [0,25]" (65. /. 25.) (Series.average s ~now:25.)

let test_series_rejects_bad_window () =
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Series.create: window must be positive and finite") (fun () ->
      ignore (Series.create ~window:0. ()))

let test_reservoir_decimates () =
  let r = Reservoir.create ~capacity:8 () in
  for i = 0 to 99 do
    Reservoir.add r ~ts:(Float.of_int i) (Float.of_int i)
  done;
  Alcotest.(check int) "saw the whole stream" 100 (Reservoir.seen r);
  let samples = Array.to_list (Reservoir.samples r) in
  let n = List.length samples in
  Alcotest.(check bool)
    (Printf.sprintf "kept a bounded systematic sample (%d)" n)
    true
    (n >= 2 && n <= 8);
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) samples in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "samples stay time-ordered" sorted samples

(* --- solver telemetry ----------------------------------------------------- *)


let test_probe_residuals_strictly_decrease () =
  (* A converging fig5.2 operating point; damped fixed-point iteration on
     a contraction must show monotonically shrinking residuals. *)
  let params = Params.create ~c2:0. ~p:32 ~st:40. ~so:200. () in
  let log, probe = Probe_log.log () in
  match A.solve_status ~probe ~solve_method:A.Damped_iteration params ~w:1000. with
  | Some s, Fixed_point.Converged _ ->
    Alcotest.(check bool) "at least two iterations" true (Probe_log.count log >= 2);
    Alcotest.(check bool)
      "max residual strictly decreasing" true
      (Probe_log.strictly_decreasing log);
    (match Probe_log.last log with
    | Some ev ->
      feq 1e-6 "last iterate is the solution" s.A.r ev.Solver_probe.iterate.(0);
      (match ev.Solver_probe.hottest with
      | Some (0, u) -> feq 1e-6 "hottest reports So/R" (200. /. s.A.r) u
      | _ -> Alcotest.fail "scalar all-to-all has exactly station 0")
    | None -> Alcotest.fail "log is non-empty")
  | _ -> Alcotest.fail "fig5.2 point must converge"

let test_probe_identifies_saturated_station () =
  (* One station with dominating demand at a large population: the AMVA
     iteration stalls against a tiny budget with that station's implied
     utilization past 1, and the probe's last [hottest] must name the
     same station the Saturated status reports. *)
  let stations =
    [|
      Station.queueing ~demand:5. (); Station.queueing ~demand:120. ();
      Station.queueing ~demand:10. ();
    |]
  in
  let log, probe = Probe_log.log () in
  match Amva.solve_status ~probe ~think_time:50. ~stations ~population:5000 ~max_iter:3 () with
  | None, Fixed_point.Saturated { station; utilization } ->
    Alcotest.(check int) "the dominant-demand station saturates" 1 station;
    Alcotest.(check bool) "reported at or past full utilization" true (utilization >= 1.);
    (match Probe_log.hottest log with
    | Some (probe_station, probe_u) ->
      Alcotest.(check int) "probe's last hottest is the same station" station
        probe_station;
      Alcotest.(check bool) "probe saw it past full utilization" true (probe_u >= 1.)
    | None -> Alcotest.fail "probe carried station semantics")
  | _, status ->
    Alcotest.failf "expected Saturated, got %s" (Fixed_point.status_to_string status)

let test_probe_general_saturation () =
  (* The Appendix-A solver: a server node everyone hammers. The
     contention-free starting throughputs imply server utilization past 1,
     so stalling the iteration early yields a Saturated diagnosis — and
     probe and status must agree on which node. *)
  let params = Params.create ~c2:1. ~p:4 ~st:40. ~so:400. () in
  let net =
    {
      G.params;
      protocol_processor = false;
      G.nodes =
        Array.init 4 (fun c ->
            if c = 2 then { G.work = None; visits = Array.make 4 0. }
            else
              {
                G.work = Some 10.;
                visits = Array.init 4 (fun k -> if k = 2 then 1. else 0.);
              });
    }
  in
  let log, probe = Probe_log.log () in
  match G.solve_status ~probe ~max_iter:5 net with
  | None, Fixed_point.Saturated { station; _ } ->
    Alcotest.(check int) "the hotspot node saturates" 2 station;
    (match Probe_log.hottest log with
    | Some (probe_station, _) ->
      Alcotest.(check int) "probe agrees on the culprit" station probe_station
    | None -> Alcotest.fail "probe carried node semantics")
  | _, status ->
    Alcotest.failf "expected Saturated, got %s" (Fixed_point.status_to_string status)

let test_probe_is_passive () =
  (* Same outcome with and without a probe attached, bit for bit. *)
  let params = Params.create ~c2:1. ~p:32 ~st:40. ~so:200. () in
  let plain = A.solve params ~w:500. in
  let _, probe = Probe_log.log () in
  let probed = A.solve ~probe params ~w:500. in
  Alcotest.(check (float 0.)) "identical solution with a probe" plain.A.r probed.A.r

let suite =
  [
    Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "text golden" `Quick test_text_golden;
    Alcotest.test_case "write_file by extension" `Quick test_write_file_picks_format;
    Alcotest.test_case "recorder rejects backwards time" `Quick
      test_recorder_rejects_backwards_time;
    Alcotest.test_case "recorder bounds memory" `Quick test_recorder_limit_drops;
    QCheck_alcotest.to_alcotest prop_spans_well_nested;
    QCheck_alcotest.to_alcotest prop_timestamps_monotone;
    Alcotest.test_case "probe counts cycles" `Quick test_probe_counts_cycles;
    Alcotest.test_case "trace identity across --jobs" `Slow test_jobs_trace_identity;
    Alcotest.test_case "series windows" `Quick test_series_windows;
    Alcotest.test_case "series rejects bad window" `Quick test_series_rejects_bad_window;
    Alcotest.test_case "reservoir decimates" `Quick test_reservoir_decimates;
    Alcotest.test_case "solver residuals strictly decrease" `Quick
      test_probe_residuals_strictly_decrease;
    Alcotest.test_case "saturated station identified (AMVA)" `Quick
      test_probe_identifies_saturated_station;
    Alcotest.test_case "saturated node identified (general)" `Quick
      test_probe_general_saturation;
    Alcotest.test_case "probe is passive" `Quick test_probe_is_passive;
  ]
