(* Test inputs built on the public library API: generators and drivers
   that only the tests need, so they do not live in lib/. *)

module Rng = Lopc_prng.Rng

(* A private, fixed-seed QCheck state, so property tests draw the same
   inputs on every run. *)
let fixed_rand seed =
  (Random.State.make [| seed |]
  [@lint.allow
    "global-rng"
      "a private, fixed-seed QCheck state: the global stream is untouched and \
       the drawn inputs are the same on every run"])

(* |x - y| within [tol] of the larger magnitude; nan matches nan. *)
let rel_close tol x y =
  Float.equal x y || Float.abs (x -. y) <= tol *. Float.max (Float.abs x) (Float.abs y)

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

(* Reachable states, [Σ π(s)·f(s)], the stationary probability of one
   state ([0.] if unreachable) and the total mass, all through the one
   production accessor. Adding exact zeros keeps [probability]
   bit-identical to a direct lookup. *)
let ctmc_states sol = Ctmc.fold sol ~init:0 ~f:(fun n _ _ -> n + 1)

let expectation sol ~f = Ctmc.fold sol ~init:0. ~f:(fun acc s pi -> acc +. (pi *. f s))

let probability sol s = expectation sol ~f:(fun s' -> if s' = s then 1. else 0.)

let sum_pi sol = expectation sol ~f:(fun _ -> 1.)

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

module Fixed_point = Lopc_numerics.Fixed_point
module Contention = Lopc.Contention

(* The unlumped Appendix A solve: one throughput per node, with a dense
   [Vᵀx] and a dense cycle-time sum every iteration. [General.solve_status]
   iterates the same equations over classes of interchangeable nodes; this
   is the reference it is checked against. *)
let dense_general_solve_status ?(tol = 1e-12) ?(max_iter = 200_000) (t : G.t) =
  (match G.validate t with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("General: " ^ reason));
  let p = Array.length t.nodes in
  let { Params.st; so; _ } = t.params in
  let beta = Contention.beta t.params in
  let max_queue =
    Float.of_int
      (Array.fold_left
         (fun acc (spec : G.node_spec) -> if Option.is_none spec.work then acc else acc + 1)
         0 t.nodes)
  in
  let node_queues a b =
    if 1. -. a -. (a *. b) <= 1e-9 then
      (max_queue, Float.min max_queue (Contention.reply_queue ~beta a b max_queue))
    else begin
      let qq, _ = Contention.queues ~beta ~extra:0. a b in
      let qq = Float.max 0. (Float.min qq max_queue) in
      (qq, Float.max 0. (Float.min (Contention.reply_queue ~beta a b qq) max_queue))
    end
  in
  let analyze x =
    let lambda =
      Array.init p (fun k ->
          let acc = ref 0. in
          Array.iteri (fun c (spec : G.node_spec) -> acc := !acc +. (spec.visits.(k) *. x.(c))) t.nodes;
          !acc)
    in
    Array.init p (fun k ->
        let a = so *. lambda.(k) in
        let b = so *. x.(k) in
        let qq, qy = node_queues a b in
        let rq = so *. (1. +. qq +. qy +. (beta *. (a +. b))) in
        let ry = so *. (1. +. qq +. (beta *. a)) in
        let rw =
          match t.nodes.(k).work with
          | None -> Float.nan
          | Some w ->
            if t.protocol_processor then w
            else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a)
        in
        { G.rq; ry; rw; qq; qy; uq = a; uy = b })
  in
  let cycle_time (per_node : G.node_solution array) c =
    match t.nodes.(c).work with
    | None -> Float.nan
    | Some _ ->
      let acc = ref 0. in
      Array.iteri
        (fun k v -> if v > 0. then acc := !acc +. (v *. (st +. per_node.(k).rq)))
        t.nodes.(c).visits;
      per_node.(c).rw +. !acc +. st +. per_node.(c).ry
  in
  let step x =
    let per_node = analyze x in
    Array.init p (fun c ->
        match t.nodes.(c).work with None -> 0. | Some _ -> 1. /. cycle_time per_node c)
  in
  let x0 =
    Array.map
      (fun (spec : G.node_spec) ->
        match spec.work with
        | None -> 0.
        | Some w ->
          let hops = Array.fold_left ( +. ) 0. spec.visits in
          1. /. (w +. (hops *. (st +. so)) +. st +. so))
      t.nodes
  in
  let outcome, status =
    Fixed_point.solve_vector_status ~damping:0.1 ~tol ~max_iter ~f:step x0
  in
  let x = outcome.Fixed_point.value in
  let per_node = analyze x in
  match status with
  | Fixed_point.Converged _ ->
    ( Some
        {
          G.cycle_times = Array.init p (cycle_time per_node);
          throughputs = x;
          node_solutions = per_node;
          system_throughput = Array.fold_left ( +. ) 0. x;
        },
      status )
  | _ -> (
    (* The first node at the top request-handler utilization. *)
    let best = ref None in
    Array.iteri
      (fun k (ns : G.node_solution) ->
        match !best with
        | Some (_, u) when u >= ns.uq -> ()
        | _ -> best := Some (k, ns.uq))
      per_node;
    match !best with
    | Some (station, utilization) when utilization >= 1. -. 1e-9 ->
      (None, Fixed_point.Saturated { station; utilization })
    | Some _ | None -> (None, status))

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
