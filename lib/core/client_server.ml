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

(* Two classes: the low [servers] nodes run no thread; each client visits
   each server 1/servers times per cycle. *)
let net (params : Params.t) ~w ~servers =
  check params ~w ~servers;
  let clients = params.p - servers in
  let v = 1. /. Float.of_int servers in
  {
    General.params;
    protocol_processor = false;
    classes =
      [|
        { General.members = servers; first = 0; work = None;
          row = [| 0.; 0. |]; col = [| 0.; 0. |] };
        {
          General.members = clients;
          first = servers;
          work = Some w;
          row = [| General.repeated servers v; 0. |];
          col = [| General.repeated clients v; 0. |];
        };
      |];
  }

let throughput params ~w ~servers =
  let s = Lopc_numerics.Fixed_point.get_exn (General.solve_status (net params ~w ~servers)) in
  let server = s.General.node_solutions.(0) in
  {
    servers;
    clients = params.p - servers;
    throughput = s.General.system_throughput;
    cycle_time = s.General.cycle_times.(1);
    server_residence = server.General.rq;
    server_queue = server.General.qq;
    server_util = server.General.uq;
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
