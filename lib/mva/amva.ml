module Fixed_point = Lopc_numerics.Fixed_point

type approximation = Bard | Schweitzer

(* Stations whose fields are equal bit for bit are interchangeable: the
   iteration gives them equal queues, so it runs on one queue per class.
   Comparing bits keeps [-0.] and [0.] apart. Classes are numbered by
   first occurrence; [class_of.(k)] is station k's class and [reps.(i)]
   the first station of class i. *)
let classes stations =
  let ids = Hashtbl.create 8 and reps = ref [] in
  let class_of =
    Array.map
      (fun (s : Station.t) ->
        let key = (s.kind, Int64.bits_of_float s.demand, Int64.bits_of_float s.scv, s.servers) in
        match Hashtbl.find_opt ids key with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids key i;
          reps := s :: !reps;
          i)
      stations
  in
  (class_of, Array.of_list (List.rev !reps))

(* [Σ_k v.(class_of.(k))] over the stations in station order, from [0.]:
   the association [Array.fold_left ( +. ) 0.] over one entry per station
   uses, so a class sum is bit-identical to the per-station one. *)
let station_sum class_of v =
  let acc = ref 0. in
  for k = 0 to Array.length class_of - 1 do
    acc := !acc +. v.(class_of.(k))
  done;
  !acc

(* Residence times of each class given its queue length and a throughput
   estimate (the scv residual-life correction term is the per-server
   utilization U_k = x·D_k/c). Multi-server stations use the Seidmann
   transformation: a queueing stage of demand D/c plus a fixed delay
   D·(c−1)/c — exact for c = 1. *)
let residence_of ~reps ~arrival_factor queues x =
  Array.mapi
    (fun i (s : Station.t) ->
      match s.kind with
      | Station.Delay -> s.demand
      | Station.Queueing ->
        let c = Float.of_int s.servers in
        let queue_demand = s.demand /. c in
        let fixed_delay = s.demand *. (c -. 1.) /. c in
        let arrival_queue = arrival_factor *. queues.(i) in
        let correction = (s.scv -. 1.) /. 2. *. (x *. queue_demand) in
        fixed_delay +. (queue_demand *. (1. +. arrival_queue +. correction)))
    reps

(* Little's law X = n / (Z + Σ R_k(X)) with R linear in X:
   Σ R = a + X·b, so X solves X²·b + X·a − n = 0. [b] does not depend on
   the queues; the caller sums it once. *)
let consistent_throughput ~class_of ~reps ~arrival_factor ~think_time ~b ~n queues =
  let base = residence_of ~reps ~arrival_factor queues 0. in
  let a = think_time +. station_sum class_of base in
  if Float.equal b 0. then n /. a
  else begin
    let disc = (a *. a) +. (4. *. n *. b) in
    if disc < 0. then n /. a
    else begin
      let x = ((-.a) +. sqrt disc) /. (2. *. b) in
      if x > 0. then x else n /. a
    end
  end

(* Collect every input problem before rejecting, so a caller assembling a
   station array from data sees all bad stations (with their indices) in
   one message instead of fixing them one invalid_arg at a time. *)
let validate_inputs ~think_time ~stations ~population =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  if population < 0 then add "negative population";
  if think_time < 0. || not (Float.is_finite think_time) then
    add (Printf.sprintf "think time must be finite and >= 0, got %g" think_time);
  Array.iteri
    (fun i s ->
      match Station.validate s with
      | Ok _ -> ()
      | Error reason -> add (Printf.sprintf "station %d: %s" i reason))
    stations;
  match List.rev !problems with
  | [] -> ()
  | problems -> invalid_arg ("Amva: " ^ String.concat "; " problems)

(* The most utilized queueing station at the throughput implied by a
   queue-length iterate: the station a [Saturated] diagnosis names. *)
let hottest_station ~stations x =
  let best = ref None in
  Array.iteri
    (fun i (s : Station.t) ->
      match s.kind with
      | Station.Delay -> ()
      | Station.Queueing ->
        let u = x *. s.demand /. Float.of_int s.servers in
        (match !best with Some (_, u') when u' >= u -> () | _ -> best := Some (i, u)))
    stations;
  !best

let solve_status ?budget ?(approximation = Bard) ?(think_time = 0.) ?(tol = 1e-12) ?(max_iter = 100_000) ~stations ~population () =
  validate_inputs ~think_time ~stations ~population;
  let k = Array.length stations in
  let n = Float.of_int population in
  if population = 0 then
    ( Some
        {
          Solution.throughput = 0.;
          cycle_time = Float.nan;
          residence = Array.map (fun (s : Station.t) -> s.demand) stations;
          queue_length = Array.make k 0.;
          utilization = Array.make k 0.;
        },
      Fixed_point.Converged { iters = 0 } )
  else begin
    let arrival_factor =
      match approximation with Bard -> 1. | Schweitzer -> (n -. 1.) /. n
    in
    let total_demand =
      Array.fold_left (fun acc (s : Station.t) -> acc +. s.demand) 0. stations
    in
    if think_time +. total_demand <= 0. then
      invalid_arg "Amva: zero total demand with positive population";
    (* Every vector below holds one entry per class of equal stations. *)
    let class_of, reps = classes stations in
    let b =
      Array.fold_left
        (fun acc (s : Station.t) ->
          match s.kind with
          | Station.Delay -> acc
          | Station.Queueing ->
            let d = s.demand /. Float.of_int s.servers in
            acc +. ((s.scv -. 1.) /. 2. *. d *. d))
        0. stations
    in
    let throughput = consistent_throughput ~class_of ~reps ~arrival_factor ~think_time ~b ~n in
    let step queues =
      let x = throughput queues in
      let residence = residence_of ~reps ~arrival_factor queues x in
      Array.map (fun r -> x *. r) residence
    in
    let q0 =
      Array.map
        (fun (s : Station.t) -> n *. s.demand /. (think_time +. total_demand))
        reps
    in
    let queues, status =
      Fixed_point.solve_vector_status ?budget ~damping:0.5 ~tol ~max_iter ~f:step q0
    in
    let x = throughput queues in
    match status with
    | Fixed_point.Converged _ ->
      let residence = residence_of ~reps ~arrival_factor queues x in
      let per_station v = Array.map (fun i -> v.(i)) class_of in
      ( Some
          {
            Solution.throughput = x;
            cycle_time = think_time +. station_sum class_of residence;
            residence = per_station residence;
            queue_length = per_station (Array.map (fun r -> x *. r) residence);
            utilization =
              per_station
                (Array.map
                   (fun (s : Station.t) -> x *. s.demand /. Float.of_int s.servers)
                   reps);
          },
        status )
    (* A budget stop means the caller's allowance ended, not that the
       iterate says anything about the model — keep it verbatim. *)
    | Fixed_point.Exhausted _ -> (None, status)
    | _ ->
      (* Diagnose the stall from the last iterate: a queueing station
         pinned at (or past) full per-server utilization is saturation —
         the demand admits no finite closed-network solution at this
         population — which is far more actionable than a bare
         iteration-budget report. *)
      (match hottest_station ~stations x with
      | Some (station, utilization) when utilization >= 1. -. 1e-9 ->
        (None, Fixed_point.Saturated { station; utilization })
      | Some _ | None -> (None, status))
  end

let solve ?approximation ?think_time ?tol ?max_iter ~stations ~population () =
  match solve_status ?approximation ?think_time ?tol ?max_iter ~stations ~population () with
  | Some s, _ -> s
  | None, status ->
    raise (Fixed_point.Diverged ("Amva: " ^ Fixed_point.status_to_string status))
