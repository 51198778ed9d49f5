(* Benchmark harness.

   Usage:
     main.exe                 reproduce every table/figure (full fidelity)
     main.exe --quick         same, with shorter simulations
     main.exe --jobs N        fan replications across N domains (default: all cores)
     main.exe fig5.2 fig6.2   reproduce selected artifacts
     main.exe --csv DIR       additionally write each table as DIR/<name>.csv
     main.exe --trace-dir DIR write per-point Chrome traces for the simulated
                              artifacts (fig5.2, fig6.2, fault) into DIR
     main.exe micro           run the Bechamel micro-benchmarks
     main.exe --list          list artifact names

   Tables go to stdout; timing goes to stderr so that full-run stdout is
   byte-comparable across runs and across --jobs settings. Full runs also
   write BENCH_<gitsha>.json with micro ns/run estimates and per-artifact
   wall-clock times. *)

module Experiments = Lopc_repro.Experiments
module Parallel = Lopc_repro.Parallel
module Table = Lopc_repro.Table

(* --- Bechamel micro-benchmarks ------------------------------------------- *)

(* The typed lint pass (cmt load + call graph + effect fixpoint + every
   rule) as a micro line, so analysis-cost regressions show up in
   BENCH_<gitsha>.json next to the solver numbers. Only present when the
   .cmt trees exist — `main.exe micro` from a source checkout without a
   build simply omits the line. *)
let lint_typed_test () =
  let open Bechamel in
  let roots =
    List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples"; "test" ]
  in
  match Lopc_analysis.Typed_driver.analyze_paths roots with
  | exception _ -> []
  | _ ->
    [
      Test.make ~name:"lint_typed (full tree)"
        (Staged.stage (fun () ->
             ignore (Lopc_analysis.Typed_driver.analyze_paths roots)));
      Test.make ~name:"lint_absint (full tree)"
        (Staged.stage (fun () ->
             ignore (Lopc_analysis.Typed_driver.analyze_paths ~stage:`Numeric roots)));
    ]

(* The per-file syntactic stage at 1 and 4 worker domains: the pair in
   BENCH_<gitsha>.json is the record that --jobs actually pays off (the
   outputs themselves are byte-identical — test_lint checks that). *)
let lint_syntactic_tests () =
  let open Bechamel in
  let roots =
    List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples"; "test" ]
  in
  if roots = [] then []
  else
    let run jobs () =
      ignore
        (if jobs <= 1 then Lopc_analysis.Driver.lint_paths roots
         else
           Lopc_analysis.Driver.lint_paths
             ~map_tasks:(fun tasks ->
               Parallel.with_pool ~jobs (fun pool -> Parallel.run pool tasks))
             roots)
    in
    [
      Test.make ~name:"lint_syntactic (jobs 1)" (Staged.stage (run 1));
      Test.make ~name:"lint_syntactic (jobs 4)" (Staged.stage (run 4));
    ]

(* Deterministic pseudo-random event times for the queue micros (Lehmer
   LCG, fixed seed): every run measures the same push/pop sequence. *)
let queue_times n =
  let state = ref 1 in
  Array.init n (fun _ ->
      state := !state * 48271 mod 0x7FFFFFFF;
      Float.of_int !state /. 1e6)

(* The event heap on the two shapes the simulator produces: a drain
   (fault storms, end-of-run) and a steady hold at ~32 pending events
   (the all-to-all steady state), scheduling each new event a
   pseudo-random delay after the one just popped. *)
let queue_tests () =
  let open Bechamel in
  let module H = Lopc_eventsim.Event_heap in
  let drain_times = queue_times 64 in
  let hold_times = queue_times 1024 in
  let heap_drain () =
    let h = H.create () in
    for _ = 1 to 16 do
      Array.iter (fun t -> H.push h ~time:t 0) drain_times;
      while not (H.is_empty h) do
        ignore (H.pop_payload h)
      done
    done
  in
  let heap_hold () =
    let h = H.create () in
    for i = 0 to 31 do
      H.push h ~time:hold_times.(i) 0
    done;
    for i = 0 to 999 do
      let t = H.peek_time_exn h in
      ignore (H.pop_payload h);
      H.push h ~time:(t +. hold_times.(i land 1023)) 0
    done
  in
  [
    Test.make ~name:"event_heap drain (64-deep x16)" (Staged.stage heap_drain);
    Test.make ~name:"event_heap hold (32 pending, 1000 events)"
      (Staged.stage heap_hold);
  ]

let micro_tests () =
  let open Bechamel in
  let params = Lopc.Params.create ~c2:0. ~p:32 ~st:40. ~so:200. () in
  let cs_params = Lopc.Params.create ~c2:1. ~p:32 ~st:40. ~so:131. () in
  let general = Lopc.General.homogeneous_all_to_all params ~w:1000. in
  let stations =
    Array.init 8 (fun _ -> Lopc_mva.Station.queueing ~demand:16.4 ())
  in
  let sim_spec =
    Lopc_workloads.Pattern.to_spec ~nodes:16
      ~work:(Lopc_dist.Distribution.Exponential 1000.)
      ~handler:(Lopc_dist.Distribution.Constant 200.)
      ~wire:(Lopc_dist.Distribution.Constant 40.)
      Lopc_workloads.Pattern.All_to_all
  in
  let rng = Lopc_prng.Rng.create 1 in
  let quartic = Lopc.All_to_all.quartic params ~w:1000. in
  [
    Test.make ~name:"all_to_all.solve (Brent)"
      (Staged.stage (fun () -> Lopc.All_to_all.solve params ~w:1000.));
    Test.make ~name:"all_to_all.solve (iteration)"
      (Staged.stage (fun () ->
           Lopc.All_to_all.solve ~solve_method:Lopc.All_to_all.Damped_iteration params
             ~w:1000.));
    Test.make ~name:"all_to_all.solve (polynomial)"
      (Staged.stage (fun () ->
           Lopc.All_to_all.solve ~solve_method:Lopc.All_to_all.Polynomial_roots params
             ~w:1000.));
    Test.make ~name:"client_server.throughput_curve (31 points)"
      (Staged.stage (fun () -> Lopc.Client_server.throughput_curve cs_params ~w:1000.));
    Test.make ~name:"general.solve (32 nodes)"
      (Staged.stage (fun () -> Lopc.General.solve general));
    Test.make ~name:"exact_mva.solve (N=64, 8 stations)"
      (Staged.stage (fun () ->
           Lopc_mva.Exact_mva.solve ~think_time:1211. ~stations ~population:64 ()));
    Test.make ~name:"simulator (16 nodes, 1000 cycles)"
      (Staged.stage (fun () ->
           Lopc_activemsg.Machine.run ~warmup_cycles:200 ~spec:sim_spec ~cycles:1000 ()));
    Test.make ~name:"rng.float x1000"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Lopc_prng.Rng.float rng)
           done));
    Test.make ~name:"polynomial.real_roots (quartic)"
      (Staged.stage (fun () -> Lopc_numerics.Polynomial.real_roots quartic));
    Test.make ~name:"windowed.solve (window 4)"
      (Staged.stage (fun () -> Lopc.Windowed.solve ~window:4 params ~w:1000.));
    Test.make ~name:"gap.solve (g=50)"
      (Staged.stage (fun () -> Lopc.Gap.solve ~gap:50. params ~w:1000.));
    Test.make ~name:"torus.solve (4x8)"
      (Staged.stage
         (let topo =
            Lopc_topology.Topology.create ~nodes:32 ~per_hop:10. ~link_time:50. ()
          in
          let no_st = Lopc.Params.create ~c2:0. ~p:32 ~st:0. ~so:200. () in
          fun () -> Lopc.Torus.solve no_st ~topology:topo ~w:1000.));
    Test.make ~name:"exact CTMC (P=3)"
      (Staged.stage (fun () ->
           Lopc_markov.Exact_machine.all_to_all ~p:3 ~w:1000. ~so:200. ~st:40. ()));
    Test.make ~name:"exact CTMC (P=4, sparse)"
      (Staged.stage (fun () ->
           Lopc_markov.Exact_machine.all_to_all ~p:4 ~w:1000. ~so:200. ~st:40. ()));
  ]
  @ queue_tests ()
  @ lint_typed_test ()
  @ lint_syntactic_tests ()

(* Estimates sorted by test name: Bechamel hands results back in a
   Hashtbl, whose iteration order is unspecified, so reporting straight
   out of Hashtbl.iter made the output order vary run to run. *)
let micro_estimates () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  micro_tests ()
  |> List.concat_map (fun test ->
         let results =
           Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
         in
         Hashtbl.fold
           (fun name raw acc ->
             let est = Analyze.one ols instance raw in
             let ns =
               match Analyze.OLS.estimates est with
               | Some [ ns ] -> Some ns
               | Some _ | None -> None
             in
             (name, ns) :: acc)
           results [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run_micro () =
  print_endline "## Micro-benchmarks (monotonic clock, ns/run)";
  List.iter
    (fun (name, ns) ->
      match ns with
      | Some ns -> Printf.printf "%-45s %12.1f ns/run\n%!" name ns
      | None -> Printf.printf "%-45s (no estimate)\n%!" name)
    (micro_estimates ())

(* --- BENCH_<gitsha>.json -------------------------------------------------- *)

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let write_bench_json ~sha ~fidelity ~jobs ~wall_s ~artifact_times ~micro =
  let path = Printf.sprintf "BENCH_%s.json" sha in
  let oc = open_out path in
  let item fmt = Printf.ksprintf (output_string oc) fmt in
  item "{\n";
  item "  \"schema\": \"lopc-bench/1\",\n";
  item "  \"git_sha\": %s,\n" (json_string sha);
  item "  \"fidelity\": %s,\n"
    (json_string (match fidelity with Experiments.Quick -> "quick" | Full -> "full"));
  item "  \"jobs\": %d,\n" jobs;
  item "  \"wall_clock_s\": %.3f,\n" wall_s;
  item "  \"artifacts\": [\n";
  List.iteri
    (fun i (name, seconds) ->
      item "    {\"name\": %s, \"seconds\": %.3f}%s\n" (json_string name) seconds
        (if i = List.length artifact_times - 1 then "" else ","))
    artifact_times;
  item "  ],\n";
  item "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      item "    {\"name\": %s, \"ns_per_run\": %s}%s\n" (json_string name)
        (match ns with Some ns -> Printf.sprintf "%.1f" ns | None -> "null")
        (if i = List.length micro - 1 then "" else ","))
    micro;
  item "  ]\n";
  item "}\n";
  close_out oc;
  path

(* --- reproduction driver -------------------------------------------------- *)

let emit ~csv_dir (name, table) =
  Format.printf "%a@." Table.pp table;
  match csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (Table.to_csv table);
    close_out oc;
    Format.printf "(csv written to %s)@.@." path

type options = {
  quick : bool;
  list : bool;
  csv_dir : string option;
  trace_dir : string option;
  jobs : int option;
  selected : string list;
}

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "%s\nusage: %s [--quick] [--jobs N] [--csv DIR] [--trace-dir DIR] [--list] [ARTIFACT...]\n"
        msg Sys.argv.(0);
      exit 2)
    fmt

let is_flag a = String.length a >= 2 && String.sub a 0 2 = "--"

let parse_args args =
  let rec go opts = function
    | [] -> { opts with selected = List.rev opts.selected }
    | "--quick" :: rest -> go { opts with quick = true } rest
    | "--list" :: rest -> go { opts with list = true } rest
    | "--csv" :: dir :: rest when not (is_flag dir) ->
      go { opts with csv_dir = Some dir } rest
    | [ "--csv" ] | "--csv" :: _ -> usage_error "--csv requires a directory argument"
    | "--trace-dir" :: dir :: rest when not (is_flag dir) ->
      go { opts with trace_dir = Some dir } rest
    | [ "--trace-dir" ] | "--trace-dir" :: _ ->
      usage_error "--trace-dir requires a directory argument"
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> go { opts with jobs = Some n } rest
      | Some _ | None -> usage_error "--jobs requires a positive integer, got %S" n)
    | [ "--jobs" ] -> usage_error "--jobs requires a positive integer"
    | flag :: _ when is_flag flag -> usage_error "unknown flag %S" flag
    | name :: rest -> go { opts with selected = name :: opts.selected } rest
  in
  go
    {
      quick = false;
      list = false;
      csv_dir = None;
      trace_dir = None;
      jobs = None;
      selected = [];
    }
    args

let artifact_names () = List.map fst (Experiments.plans ())

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let main () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let ensure_dir = function
    | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
    | Some _ | None -> ()
  in
  ensure_dir opts.csv_dir;
  ensure_dir opts.trace_dir;
  let fidelity = if opts.quick then Experiments.Quick else Experiments.Full in
  if opts.list then List.iter print_endline ("micro" :: artifact_names ())
  else begin
    let pool = Parallel.create ?jobs:opts.jobs () in
    Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
    let jobs = Parallel.jobs pool in
    if opts.selected = [] then begin
      let t0 = Unix.gettimeofday () in
      let artifact_times =
        List.map
          (fun (name, plan) ->
            let table, seconds =
              timed (fun () -> Experiments.run_plan ~pool plan)
            in
            emit ~csv_dir:opts.csv_dir (name, table);
            Printf.eprintf "[timing] %-20s %4d tasks  %8.2fs\n%!" name
              (Experiments.task_count plan) seconds;
            (name, seconds))
          (Experiments.plans ~fidelity ?trace_dir:opts.trace_dir ())
      in
      let wall_s = Unix.gettimeofday () -. t0 in
      let micro = micro_estimates () in
      let json_path =
        write_bench_json ~sha:(git_sha ()) ~fidelity ~jobs ~wall_s ~artifact_times
          ~micro
      in
      (* Count what was actually emitted, not the name list: the two can
         drift, and the summary is the line CI greps for. *)
      Printf.eprintf "reproduced %d artifacts in %.1fs (jobs=%d); %s\n%!"
        (List.length artifact_times) wall_s jobs json_path
    end
    else
      List.iter
        (fun name ->
          if name = "micro" then run_micro ()
          else
            (* Fresh plan per selection: plans capture mutable PRNG
               streams and are single-shot. *)
            match
              List.assoc_opt name
                (Experiments.plans ~fidelity ?trace_dir:opts.trace_dir ())
            with
            | Some plan ->
              let table, seconds =
                timed (fun () -> Experiments.run_plan ~pool plan)
              in
              emit ~csv_dir:opts.csv_dir (name, table);
              Printf.eprintf "[timing] %-20s %4d tasks  %8.2fs\n%!" name
                (Experiments.task_count plan) seconds
            | None ->
              Printf.eprintf "unknown artifact %S; try --list\n" name;
              exit 1)
        opts.selected
  end

let () =
  try main () with
  | Lopc_numerics.Fixed_point.Diverged msg ->
    (* A diverged/saturated solver is a structured outcome, not a crash:
       name it and fail the run. *)
    Printf.eprintf "solver outcome: %s\n" msg;
    exit 1
