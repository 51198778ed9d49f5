let check_w w =
  if w < 0. || not (Float.is_finite w) then invalid_arg "Logp: invalid work value"

let cycle_time (params : Params.t) ~w =
  check_w w;
  w +. (2. *. params.st) +. (2. *. params.so)

let total_runtime params (alg : Params.algorithm) =
  Float.of_int alg.n *. cycle_time params ~w:alg.w

let server_bound (params : Params.t) ~servers =
  if servers < 1 then invalid_arg "Logp.server_bound: need at least one server";
  Float.of_int servers /. params.so

let client_bound params ~w ~clients =
  if clients < 1 then invalid_arg "Logp.client_bound: need at least one client";
  Float.of_int clients /. cycle_time params ~w

let workpile_bound params ~w ~servers ~clients =
  Float.min (server_bound params ~servers) (client_bound params ~w ~clients)
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]
