(* Test inputs built on the public library API: generators and drivers
   that only the tests need, so they do not live in lib/. *)

module Rng = Lopc_prng.Rng

(* Standard normal deviate (Marsaglia polar method), for sample inputs
   with a known shape. *)
let gaussian t =
  let rec polar () =
    let u = Rng.float_range t (-1.) 1. and v = Rng.float_range t (-1.) 1. in
    let s = (u *. u) +. (v *. v) in
    if s >= 1. || Float.equal s 0. then polar ()
    else
      u
      *. sqrt
           (-2. *. log s
           /. s
           [@lint.allow
             "division-by-vanishing"
               "the Float.equal rejection loop excludes s = 0; carving a point out \
                of an interval is beyond the interval domain"])
  in
  polar ()

(* Matrix-vector product, to check [Linear.solve] by substitution. *)
let mat_vec a x =
  Array.map
    (fun row ->
      let acc = ref 0. in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      !acc)
    a

(* The monic polynomial with the given real roots, for root-finder inputs
   whose answer is known. *)
let poly_of_roots roots =
  let times_root p r =
    Array.init
      (Array.length p + 1)
      (fun i ->
        (if i > 0 then p.(i - 1) else 0.) -. if i < Array.length p then r *. p.(i) else 0.)
  in
  Lopc_numerics.Polynomial.of_coeffs (Array.fold_left times_root [| 1. |] roots)

let poly_degree (p : Lopc_numerics.Polynomial.t) = Array.length (p :> float array) - 1

module Station = Lopc_mva.Station
module Solution = Lopc_mva.Solution

(* Infinite-server "think" station: the MVA solvers support it, the LoPC
   models build none. *)
let delay_station ~demand =
  match
    Station.validate
      ({ Station.kind = Delay; demand; scv = 1.; servers = 1 }
      [@lint.allow
        "negative-cost" "raw constructor argument: [Station.validate] rejects a bad demand"])
  with
  | Ok s -> s
  | Error reason -> invalid_arg ("delay station: " ^ reason)

(* Little's law over the whole network: [Σ Q_k ≈ population], relative
   tolerance [tol]. *)
let little_consistent ?(tol = 1e-6) ~population (s : Solution.t) =
  let total = Array.fold_left ( +. ) 0. s.queue_length in
  let n = Float.of_int population in
  Float.abs (total -. n) <= tol *. Float.max 1. n

module Ctmc = Lopc_markov.Ctmc

let ctmc_status_to_string = function
  | Ctmc.Converged { iters } -> Printf.sprintf "converged in %d iterations" iters
  | Not_converged { iters; diff } ->
    Printf.sprintf "not converged after %d iterations (l1 residual %g)" iters diff
  | Exhausted { reason } -> Lopc_robust.Budget.reason_to_string reason
  | Too_large { max_states } -> Printf.sprintf "state space exceeds %d states" max_states

(* [Ctmc.solve_status] for chains a test expects to solve. *)
let ctmc_solve ?iteration ?max_states ~initial ~transitions () =
  match Ctmc.solve_status ?iteration ?max_states ~initial ~transitions () with
  | Some sol, _ -> sol
  | None, status -> failwith ("ctmc: " ^ ctmc_status_to_string status)

(* Stationary probability of one state ([0.] if unreachable) and the total
   mass, through the one production aggregation. Adding exact zeros keeps
   both bit-identical to a direct lookup and sum. *)
let probability sol s = Ctmc.expectation sol ~f:(fun s' -> if s' = s then 1. else 0.)

let sum_pi sol = Ctmc.expectation sol ~f:(fun _ -> 1.)

module Params = Lopc.Params
module G = Lopc.General

(* The general model's inputs for the two special patterns, so its
   solutions can be checked against All_to_all and Client_server. *)
let general_all_to_all (params : Params.t) ~w =
  let p = params.p in
  let v = 1. /. Float.of_int (p - 1) in
  {
    G.params;
    protocol_processor = false;
    nodes =
      Array.init p (fun c ->
          { G.work = Some w; visits = Array.init p (fun k -> if k = c then 0. else v) });
  }

let general_client_server (params : Params.t) ~w ~servers =
  let p = params.p in
  let v = 1. /. Float.of_int servers in
  {
    G.params;
    protocol_processor = false;
    nodes =
      Array.init p (fun c ->
          if c < servers then { G.work = None; visits = Array.make p 0. }
          else { G.work = Some w; visits = Array.init p (fun k -> if k < servers then v else 0.) });
  }

module D = Lopc_dist.Distribution

(* Closed-form variance and C² of each distribution: the reference that
   the sampler and [D.of_mean_scv] are checked against. *)
let dist_variance = function
  | D.Constant _ -> 0.
  | Exponential m -> m *. m
  | Uniform (lo, hi) ->
    let w = hi -. lo in
    w *. w /. 12.
  | Erlang (k, m) -> m *. m /. Float.of_int k
  | Hyperexponential (p, m1, m2) ->
    (* E[X²] of a mixture of exponentials: sum p_i · 2·m_i². *)
    let second = (p *. 2. *. m1 *. m1) +. ((1. -. p) *. 2. *. m2 *. m2) in
    let mu = (p *. m1) +. ((1. -. p) *. m2) in
    second -. (mu *. mu)
  | Shifted_exponential (offset, m) ->
    let tail = m -. offset in
    tail *. tail
  | Empirical samples ->
    let n = Float.of_int (Array.length samples) in
    let mu = Array.fold_left ( +. ) 0. samples /. n in
    Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. samples /. n

let dist_scv d =
  let mu = D.mean d in
  if Float.abs mu < Float.sqrt Float.min_float then 0. else dist_variance d /. (mu *. mu)

let pp_dist ppf = function
  | D.Constant c -> Format.fprintf ppf "Const(%g)" c
  | Exponential m -> Format.fprintf ppf "Exp(mean=%g)" m
  | Uniform (lo, hi) -> Format.fprintf ppf "Uniform[%g, %g]" lo hi
  | Erlang (k, m) -> Format.fprintf ppf "Erlang(k=%d, mean=%g)" k m
  | Hyperexponential (p, m1, m2) -> Format.fprintf ppf "Hyperexp(p=%g, %g, %g)" p m1 m2
  | Shifted_exponential (offset, m) ->
    Format.fprintf ppf "ShiftedExp(offset=%g, mean=%g)" offset m
  | Empirical samples -> Format.fprintf ppf "Empirical(n=%d)" (Array.length samples)

(* Mean residual life seen by a random arrival, (1 + C²)/2 · mean
   (Eq 5.8). *)
let residual_mean d = (1. +. dist_scv d) /. 2. *. D.mean d
