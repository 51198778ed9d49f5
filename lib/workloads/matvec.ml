type t = { matrix_dim : int; p : int; madd_cost : float }

let create ~matrix_dim ~p ~madd_cost =
  if p < 2 then invalid_arg "Matvec: need at least two processors";
  if matrix_dim <= 0 || matrix_dim mod p <> 0 then
    invalid_arg "Matvec: matrix dimension must be a positive multiple of P";
  if madd_cost <= 0. || not (Float.is_finite madd_cost) then
    invalid_arg "Matvec: multiply-add cost must be positive";
  { matrix_dim; p; madd_cost }

let rows_per_node t = t.matrix_dim / t.p

let messages_per_node t = rows_per_node t * (t.p - 1)

let work_between_requests t =
  Float.of_int t.matrix_dim /. Float.of_int (t.p - 1) *. t.madd_cost

let characterize t =
  Lopc.Params.algorithm ~n:(messages_per_node t) ~w:(work_between_requests t)

let check_p (params : Lopc.Params.t) t =
  if params.p <> t.p then
    invalid_arg
      (Printf.sprintf "Matvec: parameter set has P=%d but workload has P=%d" params.p t.p)

let lopc_runtime params t =
  check_p params t;
  Lopc.All_to_all.total_runtime params (characterize t)

let logp_runtime params t =
  check_p params t;
  Lopc.Logp.total_runtime params (characterize t)
