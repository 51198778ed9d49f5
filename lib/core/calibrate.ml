module Minimize = Lopc_numerics.Minimize
module Fixed_point = Lopc_numerics.Fixed_point

type fit = { params : Params.t; residual : float; relative_residual : float }

let check_observations observations =
  if List.length observations < 2 then
    invalid_arg "Calibrate: need at least two observations";
  List.iter
    (fun (w, r) ->
      if w < 0. || not (Float.is_finite w) then invalid_arg "Calibrate: negative work";
      if r <= 0. || not (Float.is_finite r) then
        invalid_arg "Calibrate: measured cycle times must be positive")
    observations

let model_r ~c2 ~p ~st ~so ~w =
  let params = Params.create ~c2 ~p ~st ~so () in
  (Fixed_point.get_exn (All_to_all.solve_status params ~w)).All_to_all.r

let fit ?(c2 = 1.) ?fixed_st ~p ~observations () =
  check_observations observations;
  if p < 2 then invalid_arg "Calibrate: need at least two processors";
  let sse ~st ~so =
    List.fold_left
      (fun acc (w, measured) ->
        let predicted = model_r ~c2 ~p ~st ~so ~w in
        acc +. ((predicted -. measured) ** 2.))
      0. observations
  in
  let st, so, value =
    match fixed_st with
    | Some st ->
      if st < 0. || not (Float.is_finite st) then
        invalid_arg "Calibrate: fixed_st must be finite and >= 0";
      (* One-dimensional search over log So. *)
      let f lso = sse ~st ~so:(exp lso) in
      let lso = Minimize.golden_section ~f (log 1e-3) (log 1e7) in
      let so = exp lso in
      (st, so, sse ~st ~so)
    | None ->
      (* Optimize in log space so both parameters stay positive. *)
      let objective v =
        let st = exp v.(0) and so = exp v.(1) in
        if so > 1e9 || st > 1e9 then 1e30 else sse ~st ~so
      in
      let { Minimize.minimizer; value; _ } =
        Minimize.nelder_mead ~tol:1e-14 ~initial_step:0.5 ~f:objective
          [| log 10.; log 100. |]
      in
      (exp minimizer.(0), exp minimizer.(1), value)
  in
  let n = Float.of_int (List.length observations) in
  let rms_observed =
    sqrt (List.fold_left (fun acc (_, r) -> acc +. (r *. r)) 0. observations /. n)
  in
  let residual = sqrt (value /. n) in
  {
    params = Params.create ~c2 ~p ~st ~so ();
    residual;
    relative_residual = residual /. rms_observed;
  }

let predictions f ~observations =
  List.map
    (fun (w, measured) ->
      ( w,
        measured,
        (Fixed_point.get_exn (All_to_all.solve_status f.params ~w)).All_to_all.r ))
    observations
