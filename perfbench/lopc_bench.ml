(* The repository benchmark. Run it from the repository root through
   perfbench/run.sh, which builds it first:

     run.sh --workload NAME --seed N --seconds S --trace 0|1
         set up (three times; setup_s is the median), then run ops of the
         workload for S seconds and print one JSON result line. With
         --trace 1 the first half of the time runs untraced and the second
         half traced; the line then holds the per-layer metrics and the
         spans go to perfbench/traces/NAME-N.trace.json.
     lopc_bench.exe --list
         workloads and metrics, with units and directions
     lopc_bench.exe --check-spec BENCHMARK.json
         exit 1 when BENCHMARK.json disagrees with --list
     lopc_bench.exe compare A.jsonl [B.jsonl]
         medians and quartiles of result lines, with the bounds of
         BENCHMARK.json in the current directory (see README.md)

   Everything but the result line goes to stderr. *)

open Perfbench_lib

let setup_reps = 3

let usage () =
  prerr_endline
    "usage: lopc_bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       lopc_bench.exe --list\n\
    \       lopc_bench.exe --check-spec BENCHMARK.json\n\
    \       lopc_bench.exe compare A.jsonl [B.jsonl]";
  exit 2

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("lopc_bench: " ^ msg);
      exit 1)
    fmt

(* --- running a workload --------------------------------------------------- *)

let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> die "no VmHWM in /proc/self/status"
          | Some l when String.starts_with ~prefix l -> l
          | Some _ -> find ()
        in
        find ())
  in
  let n = String.length prefix in
  Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB" (fun kb ->
      Float.of_int kb /. 1024.)

type outcome = { index : int; seconds : float; kernel_s : float; ok : bool }

(* What follows every op and every set-up, untimed: a full major
   collection, so that the next one starts from a heap of live data only
   and peak RSS does not depend on when the collector caught up with the
   last one's garbage; then a kernel sample. *)
let settle () =
  Gc.full_major ();
  Hostspeed.sample ()

(* Ops [first], [first + 1], ... until [seconds] have passed (at least
   one), each followed by [settle]. An op that raises or fails its check
   counts as failed. *)
let measure tr (inst : Workloads.instance) ~first ~seconds =
  let stop = Trace.now () +. seconds in
  let rec go i acc =
    if i > first && Trace.now () >= stop then List.rev acc
    else begin
      Trace.set_op tr i;
      let t0 = Trace.now () in
      let outcome =
        match inst.op i with
        | check ->
          let seconds = Trace.now () -. t0 in
          let ok = try check () with _ -> false in
          { index = i; seconds; kernel_s = settle (); ok }
        | exception e ->
          Printf.eprintf "op %d raised %s\n%!" i (Printexc.to_string e);
          { index = i; seconds = Float.nan; kernel_s = settle (); ok = false }
      in
      go (i + 1) (outcome :: acc)
    end
  in
  go first []

(* Work per second on the nominal host: work of one op over the fastest
   op's time, rescaled by the fastest kernel sample of the same ops.
   Other tenants only ever add time, in bursts shorter than a run, so the
   fastest op is the least disturbed one (README.md has the measurements
   behind this). *)
let work_rate (inst : Workloads.instance) outcomes =
  match List.filter (fun o -> o.ok) outcomes with
  | [] -> Float.nan
  | ok ->
    let fastest f = List.fold_left (fun acc o -> Float.min acc (f o)) Float.infinity ok in
    inst.work ()
    /. Hostspeed.rescale ~kernel_s:(fastest (fun o -> o.kernel_s)) (fastest (fun o -> o.seconds))

let write_trace tr ~workload ~seed =
  let dir = Filename.concat "perfbench" "traces" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-%d.trace.json" workload seed) in
  let text =
    Json.to_string
      (Trace.to_json tr
         ~meta:[ ("workload", Json.String workload); ("seed", Json.Number (Float.of_int seed)) ])
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  (* Read it back: a trace that does not parse is a failed run. *)
  ignore (Json.parse (In_channel.with_open_bin path In_channel.input_all));
  Printf.eprintf "trace: %d spans in %s\n%!" (List.length (Trace.spans tr)) path

let run (wl : Workloads.t) ~entered ~seed ~seconds ~traced =
  let tr = Trace.create () in
  (* Set-up is input generation, state construction and one untimed
     warm-up op, repeated; the first repetition also covers start-up.
     Each is rescaled by the kernel sample of the [settle] after it. *)
  let rec setups k since acc =
    let inst = wl.setup ~seed tr in
    let warm_ok = try inst.op 0 () with _ -> false in
    let raw = Trace.now () -. since in
    let acc = (Hostspeed.rescale ~kernel_s:(settle ()) raw, warm_ok) :: acc in
    if k = setup_reps then (inst, acc) else setups (k + 1) (Trace.now ()) acc
  in
  let inst, setup = setups 1 entered [] in
  let warm_ok = List.for_all snd setup in
  let untraced = measure tr inst ~first:0 ~seconds:(if traced then seconds /. 2. else seconds) in
  let outcomes, metrics =
    if not traced then
      ( untraced,
        List.combine Spec.end_to_end
          [ Stats.median (List.map fst setup); work_rate inst untraced; peak_rss_mb () ] )
    else begin
      Trace.start tr;
      let traced_ops = measure tr inst ~first:(List.length untraced) ~seconds:(seconds /. 2.) in
      Trace.set_op tr (-1);
      let layers =
        inst.layers
          (List.filter_map (fun o -> if o.ok then Some (o.index, o.seconds) else None) traced_ops)
        @ [ ("bench.trace_overhead_ratio", work_rate inst traced_ops /. work_rate inst untraced) ]
      in
      let declared = Spec.per_layer ~artifacts:(Workloads.artifacts ()) in
      List.iter
        (fun (name, _) ->
          if not (List.exists (fun (m : Spec.metric) -> m.name = name) declared) then
            die "workload %s reports undeclared metric %s" wl.name name)
        layers;
      write_trace tr ~workload:wl.name ~seed;
      ( untraced @ traced_ops,
        List.map
          (fun (m : Spec.metric) -> (m, Option.value (List.assoc_opt m.name layers) ~default:0.))
          declared )
    end
  in
  let failed = List.length (List.filter (fun o -> not o.ok) outcomes) in
  let ok = List.filter (fun o -> o.ok) outcomes in
  if ok <> [] then begin
    let ms f =
      let xs = List.map f ok in
      (1e3 *. Stats.median xs, 1e3 *. List.fold_left Float.min Float.infinity xs)
    in
    let op_med, op_min = ms (fun o -> o.seconds) and k_med, k_min = ms (fun o -> o.kernel_s) in
    Printf.eprintf
      "%s seed %d: %d ops; op median %.3f, fastest %.3f ms; kernel median %.3f, fastest %.3f ms; \
       warm-up %s\n\
       %!"
      wl.name seed (List.length outcomes) op_med op_min k_med k_min
      (if warm_ok then "ok" else "FAILED")
  end;
  (* JSON has no NaN: a metric that could not be measured reads 0 and
     marks the run incorrect. *)
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let metric_json ((m : Spec.metric), v) =
    ( m.name,
      Json.Object
        [
          ("value", Json.Number (if Float.is_finite v then v else 0.));
          ("unit", Json.String m.unit_);
        ] )
  in
  print_endline
    (Json.to_string
       (Json.Object
          [
            ("correct", Json.Bool (warm_ok && failed = 0 && finite));
            ("attempted", Json.Number (Float.of_int (List.length outcomes)));
            ("failed", Json.Number (Float.of_int failed));
            ("metrics", Json.Object (List.map metric_json metrics));
          ]))

(* --- compare --------------------------------------------------------------- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with
         | v -> v
         | exception Json.Parse_error e -> die "%s: %s" path e)

(* (workload, metric) -> values in file order; [failed] -> failures. *)
let samples lines =
  let tbl = Hashtbl.create 64 and order = ref [] and failed = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let workload =
        match Json.member "workload" line with Some (Json.String w) -> w | _ -> "?"
      in
      (match Json.member "failed" line with
      | Some (Json.Number f) ->
        Hashtbl.replace failed workload
          (f +. Option.value (Hashtbl.find_opt failed workload) ~default:0.)
      | _ -> ());
      match Json.member "metrics" line with
      | Some (Json.Object ms) ->
        List.iter
          (fun (name, v) ->
            match Json.member "value" v with
            | Some (Json.Number x) ->
              let key = (workload, name) in
              if not (Hashtbl.mem tbl key) then order := key :: !order;
              Hashtbl.replace tbl key (x :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
            | _ -> ())
          ms
      | _ -> ())
    lines;
  (List.rev_map (fun key -> (key, List.rev (Hashtbl.find tbl key))) !order, failed)

let compare_main files =
  let spec_path = "BENCHMARK.json" in
  let spec =
    try Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Json.Parse_error e -> die "%s: %s" spec_path e
    | Sys_error e -> die "%s" e
  in
  let declared =
    match Json.member "end_to_end" spec, Json.member "per_layer" spec with
    | Some (Json.List e), Some (Json.List p) -> e @ p
    | _ -> die "%s: no end_to_end/per_layer lists" spec_path
  in
  let lookup name =
    List.find_opt (fun m -> Json.member "name" m = Some (Json.String name)) declared
  in
  let better name =
    match Option.bind (lookup name) (Json.member "better") with
    | Some (Json.String b) -> Stats.better_of_string b
    | _ -> None
  in
  let bound name =
    match Option.bind (lookup name) (Json.member "bound") with
    | Some (Json.Number b) -> Some b
    | _ -> None
  in
  let show xs =
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%12.6g [%.6g, %.6g]" (Stats.median xs) q1 q3
  in
  match List.map (fun f -> samples (read_lines f)) files with
  | [ (a, failed) ] ->
    Printf.printf "%-16s %-36s %3s %12s %27s %8s\n" "workload" "metric" "n" "median" "[q1, q3]"
      "spread";
    List.iter
      (fun ((w, name), xs) ->
        Printf.printf "%-16s %-36s %3d %s %7.2f%%%s\n" w name (List.length xs) (show xs)
          (100. *. Stats.spread xs)
          (match bound name with
          | Some b when Stats.spread xs > b /. 3. -> "  above a third of the bound"
          | _ -> ""))
      a;
    Hashtbl.iter (fun w f -> Printf.printf "%-16s failed ops: %.0f\n" w f) failed;
    0
  | [ (a, failed_a); (b, failed_b) ] ->
    Printf.printf "%-16s %-36s %40s %40s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
      "B median [q1, q3]" "B wins" "verdict";
    let regressed = ref false in
    List.iter
      (fun ((w, name), xa) ->
        match (List.assoc_opt (w, name) b, better name) with
        | None, _ | _, None -> ()
        | Some xb, Some dir ->
          let verdict =
            match bound name with
            | None -> "(no bound)"
            | Some bound ->
              let v = Stats.verdict dir ~bound xa xb in
              if v = Stats.Regressed then regressed := true;
              Printf.sprintf "%s (bound %.0f%%)" (Stats.string_of_verdict v) (100. *. bound)
          in
          Printf.printf "%-16s %-36s %s %s %5.0f%%  %s\n" w name (show xa) (show xb)
            (100. *. Stats.win_rate dir xa xb)
            verdict)
      a;
    Hashtbl.iter
      (fun w fa ->
        let fb = Option.value (Hashtbl.find_opt failed_b w) ~default:0. in
        if fb > fa then regressed := true;
        Printf.printf "%-16s failed ops: A %.0f, B %.0f\n" w fa fb)
      failed_a;
    if !regressed then 1 else 0
  | _ -> usage ()

(* --- entry point ----------------------------------------------------------- *)

let () =
  let entered = Trace.now () in
  let workload_names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] ->
    Spec.pp Format.std_formatter ~workloads:workload_names ~artifacts:(Workloads.artifacts ())
  | [ "--check-spec"; path ] -> (
    let json =
      try Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Json.Parse_error e -> die "%s: %s" path e
      | Sys_error e -> die "%s" e
    in
    match Spec.check json ~workloads:workload_names ~artifacts:(Workloads.artifacts ()) with
    | [] -> ()
    | drift ->
      List.iter (Printf.eprintf "%s: %s\n" path) drift;
      exit 1)
  | "compare" :: files -> exit (compare_main files)
  | args ->
    let rec parse ((w, s, secs, t) as acc) = function
      | [] -> acc
      | "--workload" :: v :: rest -> parse (Some v, s, secs, t) rest
      | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, secs, t) rest
      | "--seconds" :: v :: rest -> parse (w, s, float_of_string_opt v, t) rest
      | "--trace" :: v :: rest -> parse (w, s, secs, Some v) rest
      | _ -> usage ()
    in
    match parse (None, None, None, None) args with
    | Some name, Some seed, Some seconds, Some (("0" | "1") as trace) when seconds > 0. -> (
      match List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.all with
      | None -> die "unknown workload %S (try --list)" name
      | Some wl -> run wl ~entered ~seed ~seconds ~traced:(trace = "1"))
    | _ -> usage ()
