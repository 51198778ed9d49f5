module Topology = Lopc_topology.Topology
module Fixed_point = Lopc_numerics.Fixed_point

type solution = {
  r : float;
  r_contention_free : float;
  link_utilization : float;
  crossing_residence : float;
  mean_distance : float;
  penalty : float;
}

let check (params : Params.t) ~(topology : Topology.t) ~w =
  (match Params.validate params with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("Torus: " ^ reason));
  if w < 0. || not (Float.is_finite w) then invalid_arg "Torus: invalid work value";
  if topology.Topology.rows * topology.Topology.cols <> params.p then
    invalid_arg "Torus: topology size does not match P"

(* Bard residence of one crossing of a link with constant occupancy
   [link_time] and arrival rate [lambda]; the hop propagation follows. *)
let crossing ~(topology : Topology.t) ~lambda =
  let lt = topology.Topology.link_time in
  if Float.equal lt 0. then topology.Topology.per_hop
  else begin
    let u = lambda *. lt in
    if u >= 0.999 then infinity
    else topology.Topology.per_hop +. (lt *. (1. -. (u /. 2.)) /. (1. -. u))
  end

(* Effective one-way network time given the cycle time r: per-dimension
   link rates (by symmetry every X link carries mean_dx/R, every Y link
   mean_dy/R). *)
let network_time ~topology r =
  let mean_dx, mean_dy = Topology.mean_offsets topology in
  let cx = crossing ~topology ~lambda:(mean_dx /. r) in
  let cy = crossing ~topology ~lambda:(mean_dy /. r) in
  (mean_dx *. cx) +. (mean_dy *. cy)

let solve (params : Params.t) ~topology ~w =
  check params ~topology ~w;
  let d = Topology.mean_distance topology in
  let st_free =
    d *. (topology.Topology.per_hop +. topology.Topology.link_time)
  in
  let base_params = Params.create ~c2:params.c2 ~p:params.p ~st:st_free ~so:params.so () in
  let r_free = (All_to_all.solve base_params ~w).All_to_all.r in
  (* Fixed point with the contended network: replace the 2·St term of the
     zero-St model by two traversals of the torus. *)
  let no_net = Params.create ~c2:params.c2 ~p:params.p ~st:0. ~so:params.so () in
  let f r = All_to_all.fixed_point_map no_net ~w r +. (2. *. network_time ~topology r) in
  let lb = w +. (2. *. st_free) +. (2. *. params.so) in
  let r =
    match Fixed_point.solve_above_status ~f lb with
    | r, Fixed_point.Converged _ -> r
    | _, status ->
      raise (Fixed_point.Diverged ("Torus: " ^ Fixed_point.status_to_string status))
  in
  let mean_dx, mean_dy = Topology.mean_offsets topology in
  let u =
    (* Report the busier dimension's utilization. *)
    Float.max (mean_dx /. r) (mean_dy /. r) *. topology.Topology.link_time
  in
  {
    r;
    r_contention_free = r_free;
    link_utilization = u;
    crossing_residence = network_time ~topology r /. Float.max 1e-12 d;
    mean_distance = d;
    penalty = (r /. r_free) -. 1.;
  }
