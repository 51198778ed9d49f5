module Roots = Lopc_numerics.Roots

let efficiency (params : Params.t) ~w =
  if w < 0. || not (Float.is_finite w) then invalid_arg "Scaling: invalid work value";
  if Float.equal w 0. then 0. else w /. (All_to_all.solve params ~w).All_to_all.r

let min_work_for_efficiency (params : Params.t) ~target =
  if not (target > 0. && target < 1.) then
    invalid_arg "Scaling.min_work_for_efficiency: target outside (0, 1)";
  let gap w = efficiency params ~w -. target in
  (* Efficiency is 0 at W = 0 and approaches 1 as W grows, monotonically:
     bracket upward from a small positive W. *)
  Roots.brent_above ~f:gap 1e-6

let speedup (params : Params.t) ~total_work ~requests =
  if total_work <= 0. || not (Float.is_finite total_work) then
    invalid_arg "Scaling.speedup: invalid total work";
  if requests < 1 then invalid_arg "Scaling.speedup: need at least one request";
  let n = Float.of_int requests in
  let w = total_work /. (Float.of_int params.Params.p *. n) in
  let r = (All_to_all.solve params ~w).All_to_all.r in
  total_work /. (n *. r)

let speedup_curve ~p_values ~st ~so ?(c2 = 1.) ~total_work ~requests_per_node () =
  List.map
    (fun p ->
      let params = Params.create ~c2 ~p ~st ~so () in
      (p, speedup params ~total_work ~requests:requests_per_node))
    p_values
