let validate ?(think_time = 0.) ~stations ~population () =
  if population < 0 then invalid_arg "Exact_mva: negative population";
  if think_time < 0. then invalid_arg "Exact_mva: negative think time";
  Array.iter
    (fun s ->
      (match Station.validate s with
      | Ok _ -> ()
      | Error reason -> invalid_arg ("Exact_mva: " ^ reason));
      if s.Station.kind = Station.Queueing && s.Station.servers <> 1 then
        invalid_arg "Exact_mva: multi-server stations need the approximate solver")
    stations;
  let total_demand =
    think_time +. Array.fold_left (fun acc (s : Station.t) -> acc +. s.demand) 0. stations
  in
  if population > 0 && total_demand <= 0. then
    invalid_arg "Exact_mva: zero total demand with positive population"

(* The exact recursion over populations 1..N; the residences and queues
   of the last step are the solution at N. *)
let solve ?(think_time = 0.) ~stations ~population () =
  validate ~think_time ~stations ~population ();
  let k = Array.length stations in
  let queues = Array.make k 0. in
  let residence = Array.make k 0. in
  let x = ref 0. in
  for n = 1 to population do
    for i = 0 to k - 1 do
      let s = stations.(i) in
      residence.(i) <-
        (match s.Station.kind with
        | Station.Delay -> s.demand
        | Station.Queueing -> s.demand *. (1. +. queues.(i)))
    done;
    let cycle = think_time +. Array.fold_left ( +. ) 0. residence in
    x := Float.of_int n /. cycle;
    for i = 0 to k - 1 do
      queues.(i) <- !x *. residence.(i)
    done
  done;
  let x = !x in
  {
    Solution.throughput = x;
    cycle_time = (if Float.equal x 0. then Float.nan else Float.of_int population /. x);
    residence;
    queue_length = queues;
    utilization = Array.map (fun (s : Station.t) -> x *. s.demand) stations;
  }
