module Fixed_point = Lopc_numerics.Fixed_point
module Polynomial = Lopc_numerics.Polynomial
module Linear = Lopc_numerics.Linear

type solution = {
  r : float;
  rw : float;
  rq : float;
  ry : float;
  qq : float;
  qy : float;
  uq : float [@lopc.prob];
  uy : float [@lopc.prob];
  throughput : float;
  contention : float;
}

type execution = Interrupt | Polling | Protocol_processor

type terms = {
  rw : float;
  rq : float;
  ry : float;
  qq : float;
  qy : float;
  uq : float [@lopc.prob];
  uy : float [@lopc.prob];
}

let check = Params.check ~who:"All_to_all"

let lower_bound (params : Params.t) ~w =
  check params ~w;
  w +. (2. *. params.st) +. (2. *. params.so)

(* In polling mode a handler arriving while the thread computes waits for
   the residual work quantum: probability Uw = W/R, mean residual
   (1 + C²w)/2 · W = W, since work quanta are exponential (C²w = 1). Reply
   handlers never pay it: with blocking requests the home thread is
   already blocked when its reply arrives. The queue kernel takes the wait
   normalized by R. *)
let terms ~execution ~load (params : Params.t) ~w r =
  let uy = params.so /. r in
  let uq = load *. params.so /. r in
  let extra =
    match execution with
    | Polling -> w /. r *. w /. r
    | Interrupt | Protocol_processor -> 0.
  in
  let qq, qy = Contention.queues ~beta:(Contention.beta params) ~extra uq uy in
  let rw =
    match execution with
    | Interrupt -> Contention.thread_residence ~w ~so:params.so ~queue:qq ~util:uq
    | Polling | Protocol_processor -> w
  in
  ({ rw; rq = qq *. r /. load; ry = qy *. r; qq; qy; uq; uy }
  [@lint.allow
    "probability-range"
      "uq and uy are below 1 for any r above the saturation floor, where every \
       solver's bracket starts (the contention-free bound W + 2 St + 2 So > So \
       when load = 1)"])

let fixed_point_map ?(execution = Interrupt) (params : Params.t) ~w r =
  let t = terms ~execution ~load:1. params ~w r in
  t.rw +. (2. *. params.st) +. t.rq +. t.ry

(* Clearing denominators in r − F(r) = 0: multiplying by
   r·(r − So)·(r² − r·So − So²) yields a polynomial of degree ≤ 5. Rather
   than expanding symbolically we interpolate it exactly from 6 samples. *)
let quartic ?(execution = Interrupt) (params : Params.t) ~w =
  check params ~w;
  let so = params.so in
  let cleared r =
    let d1 = r -. so in
    let d2 = (r *. r) -. (r *. so) -. (so *. so) in
    (r -. fixed_point_map ~execution params ~w r) *. r *. d1 *. d2
  in
  let lb = lower_bound params ~w in
  (* Interpolate in the normalized variable u = r / lb so the Vandermonde
     system stays well conditioned, then rescale coefficients back: if
     q(u) = Σ c_j u^j interpolates G(lb·u), then G(r) = Σ (c_j / lb^j) r^j. *)
  let points = Array.init 6 (fun i -> 1.1 +. (0.45 *. Float.of_int i)) in
  let vandermonde =
    Array.map (fun u -> Array.init 6 (fun j -> u ** Float.of_int j)) points
  in
  let rhs = Array.map (fun u -> cleared (lb *. u)) points in
  let coeffs = Linear.solve vandermonde rhs in
  let rescaled = Array.mapi (fun j c -> c /. (lb ** Float.of_int j)) coeffs in
  (* Interpolation noise can leave a tiny spurious leading coefficient;
     trim anything far below the dominant scale (in normalized units). *)
  let scale = Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 0. coeffs in
  let cleaned =
    Array.mapi
      (fun j c -> if Float.abs coeffs.(j) < 1e-7 *. scale then 0. else c)
      rescaled
  in
  Polynomial.of_coeffs cleaned

let solution_of_r (params : Params.t) ~w ~execution r =
  let t = terms ~execution ~load:1. params ~w r in
  {
    r;
    rw = t.rw;
    rq = t.rq;
    ry = t.ry;
    qq = t.qq;
    qy = t.qy;
    uq = t.uq;
    uy = t.uy;
    throughput = Float.of_int params.p /. r;
    contention = r -. lower_bound params ~w;
  }

(* The reliable all-to-all model cannot saturate: the queue denominator's
   positive root is the golden-ratio multiple of So, strictly below the
   contention-free bound W + 2·St + 2·So where every bracket starts, so the
   residual always crosses zero. [Saturated] is produced only by
   [Fault_model], whose retried load can outgrow capacity; here a
   structured failure can only be [Diverged] or [Exhausted]. *)

let solve_status ?budget ?(execution = Interrupt) params ~w =
  match
    Fixed_point.solve_above_status ?budget ~f:(fixed_point_map ~execution params ~w)
      (lower_bound params ~w)
  with
  | r, (Fixed_point.Converged _ as status) -> (Some (solution_of_r params ~w ~execution r), status)
  | _, status -> (None, status)

let solve ?execution params ~w = Fixed_point.get_exn (solve_status ?execution params ~w)
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]

let rule_of_thumb_constant ~c2 =
  let params = Params.create ~c2 ~p:2 ~st:0. ~so:1. () in
  (Fixed_point.get_exn (solve_status params ~w:0.)).r

let upper_bound (params : Params.t) ~w =
  check params ~w;
  w +. (2. *. params.st) +. (rule_of_thumb_constant ~c2:params.c2 *. params.so)

let contention_fraction params ~w =
  let s = Fixed_point.get_exn (solve_status params ~w) in
  s.contention /. s.r

let total_runtime ?execution params (alg : Params.algorithm) =
  Float.of_int alg.n *. (Fixed_point.get_exn (solve_status ?execution params ~w:alg.w)).r
