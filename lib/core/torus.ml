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

(* Effective one-way network time given the cycle time r: per-dimension
   link rates (by symmetry every X link carries mean_dx/R, every Y link
   mean_dy/R). *)
let network_time ~topology r =
  let mean_dx, mean_dy = Topology.mean_offsets topology in
  let crossing d =
    topology.Topology.per_hop
    +. Contention.deterministic_residence ~service:topology.Topology.link_time
         ~lambda:(d /. r)
  in
  (mean_dx *. crossing mean_dx) +. (mean_dy *. crossing mean_dy)

let solve_status ?budget (params : Params.t) ~(topology : Topology.t) ~w =
  Params.check ~who:"Torus" params ~w;
  if topology.Topology.rows * topology.Topology.cols <> params.p then
    invalid_arg "Torus: topology size does not match P";
  let d = Topology.mean_distance topology in
  let st_free =
    d *. (topology.Topology.per_hop +. topology.Topology.link_time)
  in
  let base_params = Params.create ~c2:params.c2 ~p:params.p ~st:st_free ~so:params.so () in
  (* Fixed point with the contended network: replace the 2·St term of the
     zero-St model by two traversals of the torus. *)
  let no_net = Params.create ~c2:params.c2 ~p:params.p ~st:0. ~so:params.so () in
  let f r = All_to_all.fixed_point_map no_net ~w r +. (2. *. network_time ~topology r) in
  let lb = w +. (2. *. st_free) +. (2. *. params.so) in
  match All_to_all.solve_status ?budget base_params ~w with
  | None, status -> (None, status)
  | Some free, _ -> (
    match Fixed_point.solve_above_status ?budget ~f lb with
    | r, (Fixed_point.Converged _ as status) ->
      let r_free = free.All_to_all.r in
      let mean_dx, mean_dy = Topology.mean_offsets topology in
      let u =
        (* Report the busier dimension's utilization. *)
        Float.max (mean_dx /. r) (mean_dy /. r) *. topology.Topology.link_time
      in
      ( Some
          {
            r;
            r_contention_free = r_free;
            link_utilization = u;
            crossing_residence = network_time ~topology r /. Float.max 1e-12 d;
            mean_distance = d;
            penalty = (r /. r_free) -. 1.;
          },
        status )
    | _, status -> (None, status))
