module Roots = Lopc_numerics.Roots
module Fixed_point = Lopc_numerics.Fixed_point

type solution = {
  gap : float;
  r : float;
  r_without_gap : float;
  ni_residence : float;
  ni_utilization : float;
  penalty : float;
}

let check (params : Params.t) ~gap ~w =
  Params.check ~who:"Gap" params ~w;
  if gap < 0. || not (Float.is_finite gap) then invalid_arg "Gap: invalid gap value"

let lower_bound ~gap (params : Params.t) ~w =
  check params ~gap ~w;
  w +. (2. *. params.st) +. (4. *. gap) +. (2. *. params.so)

let ni_residence_at ~gap r = Contention.deterministic_residence ~service:gap ~lambda:(2. /. r)

let fixed_point_map ~gap (params : Params.t) ~w r =
  All_to_all.fixed_point_map params ~w r +. (4. *. ni_residence_at ~gap r)

let solve_status ?budget ?(gap = 0.) (params : Params.t) ~w =
  check params ~gap ~w;
  match All_to_all.solve_status ?budget params ~w with
  | None, status -> (None, status)
  | Some base, base_status -> (
    let solution r =
      {
        gap;
        r;
        r_without_gap = base.All_to_all.r;
        ni_residence = ni_residence_at ~gap r;
        ni_utilization = 2. *. gap /. r;
        penalty = (r /. base.All_to_all.r) -. 1.;
      }
    in
    if Float.equal gap 0. then (Some (solution base.All_to_all.r), base_status)
    else
      match
        Fixed_point.solve_above_status ?budget ~f:(fixed_point_map ~gap params ~w)
          (lower_bound ~gap params ~w)
      with
      | r, (Fixed_point.Converged _ as status) -> (Some (solution r), status)
      | _, status -> (None, status))

let tolerable_gap (params : Params.t) ~w =
  check params ~gap:0. ~w;
  let slowdown g = (Fixed_point.get_exn (solve_status ~gap:g params ~w)).penalty -. 0.05 in
  (* The penalty is 0 at g = 0 and grows without bound; bracket upward. *)
  Roots.brent_above ~f:slowdown 1e-9
