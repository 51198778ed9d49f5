(* Observability layer tests: golden files for the two trace emitters
   (byte-exact against committed fixtures), span well-nesting and
   begin/end balance over arbitrary simulator configurations, trace
   identity across --jobs settings, the probe's span counts, and what the
   solvers report (strictly decreasing residuals on a contraction;
   saturating-station identification in the returned status).

   Regenerate the goldens after an intentional format change with
     OBS_GOLDEN_WRITE=$PWD/test/fixtures dune exec test/test_main.exe -- test obs
   and review the diff. *)

module Recorder = Lopc_obs.Recorder
module Sim_probe = Lopc_obs.Sim_probe
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

(* --- solver readouts ------------------------------------------------------ *)

let test_solver_residuals_strictly_decrease () =
  (* A converging fig5.2 operating point; damped fixed-point iteration on
     a contraction must show monotonically shrinking residuals. The map
     is All_to_all's, clamped at the contention-free bound as the damped
     reference [Harness.damped_all_to_all] does, and records [|F r − r|]
     per call. *)
  let params = Params.create ~c2:0. ~p:32 ~st:40. ~so:200. () in
  let w = 1000. in
  let lb = A.lower_bound params ~w in
  let residuals = ref [] in
  let f r =
    let fr = A.fixed_point_map params ~w (Float.max r lb) in
    residuals := Float.abs (fr -. r) :: !residuals;
    fr
  in
  match Harness.damped_scalar_status ~damping:0.5 ~tol:1e-12 ~f lb with
  | r, Fixed_point.Converged { iters } ->
    let residuals = List.rev !residuals in
    Alcotest.(check int) "one map call per iteration" iters (List.length residuals);
    Alcotest.(check bool) "at least two iterations" true (iters >= 2);
    let rec strictly_decreasing = function
      | a :: (b :: _ as rest) -> b < a && strictly_decreasing rest
      | [ _ ] | [] -> true
    in
    Alcotest.(check bool) "residual strictly decreasing" true
      (strictly_decreasing residuals);
    feq 1e-6 "the fixed point is the solution" (A.solve params ~w).A.r r
  | _, status ->
    Alcotest.failf "fig5.2 point must converge, got %s" (Fixed_point.status_to_string status)

let test_dominant_station_bounds_x () =
  (* One station with dominating demand at a large population: the
     closed network runs that station just below full utilization, so
     the solve converges with X at most 1/D_max and the bottleneck's
     U below 1. *)
  let stations =
    [|
      Station.queueing ~demand:5. (); Station.queueing ~demand:120. ();
      Station.queueing ~demand:10. ();
    |]
  in
  match Amva.solve_status ~think_time:50. ~stations ~population:5000 () with
  | Some s, Fixed_point.Converged _ ->
    Alcotest.(check bool) "X <= 1/D_max" true (s.Lopc_mva.Solution.throughput <= 1. /. 120.);
    let u = s.Lopc_mva.Solution.utilization.(1) in
    Alcotest.(check bool) (Printf.sprintf "bottleneck U = %.17g < 1" u) true (u < 1.);
    Alcotest.(check bool) "the dominant station is the busiest" true
      (Array.for_all (fun v -> v <= u) s.Lopc_mva.Solution.utilization)
  | _, status ->
    Alcotest.failf "expected convergence, got %s" (Fixed_point.status_to_string status)

let test_general_hammered_server () =
  (* The Appendix-A solver: a server node everyone hammers. The
     contention-free throughputs would load it past utilization 1, but
     each thread slows down as the server fills up, so the solve
     converges with the server below full utilization. *)
  let params = Params.create ~c2:1. ~p:4 ~st:40. ~so:400. () in
  let net, class_of =
    Harness.lump
      {
        Harness.params;
        protocol_processor = false;
        nodes =
          Array.init 4 (fun c ->
              if c = 2 then { Harness.work = None; visits = Array.make 4 0. }
              else
                {
                  Harness.work = Some 10.;
                  visits = Array.init 4 (fun k -> if k = 2 then 1. else 0.);
                });
      }
  in
  match G.solve_status net with
  | Some s, Fixed_point.Converged _ ->
    let u = s.G.node_solutions.(class_of.(2)).G.uq in
    Alcotest.(check bool) (Printf.sprintf "node 2 below full utilization (%g)" u) true
      (u > 0. && u < 1.)
  | _, status ->
    Alcotest.failf "expected convergence, got %s" (Fixed_point.status_to_string status)

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
      test_solver_residuals_strictly_decrease;
    Alcotest.test_case "dominant station bounds X" `Quick
      test_dominant_station_bounds_x;
    Alcotest.test_case "hammered server converges (general)" `Quick
      test_general_hammered_server;
  ]
