module Amva = Lopc_mva.Amva
module Station = Lopc_mva.Station
module Solution = Lopc_mva.Solution

type solution = {
  servers : int;
  clients : int;
  throughput : float;
  cycle_time : float;
  server_residence : float;
  server_queue : float;
  server_util : float;
}

let check (params : Params.t) ~w ~servers =
  Params.check ~who:"Client_server" params ~w;
  if servers <= 0 || servers >= params.p then
    invalid_arg "Client_server: need 0 < servers < P"

(* Closed network: Pc customers; think stage W + 2·St + So (work, both wire
   trips and the contention-free reply handler at the client); Ps identical
   FCFS servers visited uniformly, so per-cycle demand So/Ps each. *)
let throughput ?(threads_per_server = 1) (params : Params.t) ~w ~servers =
  check params ~w ~servers;
  if threads_per_server < 1 then
    invalid_arg "Client_server: threads_per_server must be at least 1";
  let clients = params.p - servers in
  let think = w +. (2. *. params.st) +. params.so in
  let stations =
    Array.init servers (fun _ ->
        Station.queueing ~scv:params.c2 ~servers:threads_per_server
          ~demand:(params.so /. Float.of_int servers) ())
  in
  let sol = Amva.solve ~approximation:Amva.Bard ~think_time:think ~stations ~population:clients () in
  let x = sol.Solution.throughput in
  (* Per-visit numbers at one server: residence R_k is per cycle; each
     cycle makes one visit spread uniformly over the Ps stations. *)
  let server_residence = sol.Solution.residence.(0) *. Float.of_int servers in
  {
    servers;
    clients;
    throughput = x;
    cycle_time = sol.Solution.cycle_time;
    server_queue = sol.Solution.queue_length.(0);
    server_util = sol.Solution.utilization.(0);
    server_residence;
  }

let server_residence_at_optimum (params : Params.t) =
  params.so *. (1. +. sqrt ((params.c2 +. 1.) /. 2.))

let optimal_servers_real (params : Params.t) ~w =
  check params ~w ~servers:1;
  let rs = server_residence_at_optimum params in
  let r = w +. (2. *. params.st) +. rs +. params.so in
  Float.of_int params.p *. rs /. (r +. rs)

let optimal_servers params ~w =
  let real = optimal_servers_real params ~w in
  let clamp v = max 1 (min (params.Params.p - 1) v) in
  let lo = clamp (int_of_float (Float.floor real)) in
  let hi = clamp (int_of_float (Float.ceil real)) in
  if lo = hi then lo
  else begin
    let xl = (throughput params ~w ~servers:lo).throughput in
    let xh = (throughput params ~w ~servers:hi).throughput in
    if xl >= xh then lo else hi
  end
