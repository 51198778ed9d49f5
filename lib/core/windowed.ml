module Roots = Lopc_numerics.Roots

type solution = {
  window : int;
  r : float;
  rw : float;
  rq : float;
  ry : float;
  uq : float;
  qq : float;
  node_rate : float;
  throughput : float;
  processor_util : float;
}

let saturation_rate (params : Params.t) ~w =
  if w < 0. || not (Float.is_finite w) then invalid_arg "Windowed: invalid work value";
  1. /. (w +. (2. *. params.so))

(* Queue lengths at handler utilization u — the §5 closed forms. The
   1 - u - u² denominator is safe because the only caller, [residencies],
   rejects u at or above the golden-ratio bound before calling in. *)
let queues (params : Params.t) u =
  let beta = (params.c2 -. 1.) /. 2. in
  let denom = 1. -. u -. (u *. u) in
  let gq = (1. +. ((1. +. (2. *. beta)) *. u) +. (beta *. u *. u)) /. denom in
  let qq = u *. gq in
  let qy = u *. (1. +. qq +. (beta *. u)) in
  (qq, qy)
[@@lint.allow
  "unguarded-division division-by-vanishing"
    "the only caller, [residencies], rejects u at or above the golden-ratio bound \
     before calling in, so 1 - u - u^2 stays strictly positive"]

(* Golden-ratio bound: the closed forms need 1 − u − u² > 0. *)
let u_limit = (sqrt 5. -. 1.) /. 2.

(* All per-slot residencies implied by a candidate per-node rate x;
   returns None when x saturates a denominator (rate infeasible). *)
let residencies (params : Params.t) ~w ~window x =
  let u = params.so *. x in
  if u >= u_limit *. 0.999 then None
  else begin
    let qq, qy = queues params u in
    let rq = qq /. x in
    let ry = qy /. x in
    (* Window 1: the thread is blocked whenever its reply handler runs, so
       only request handlers interfere (the paper's Eq 5.7). Window >= 2:
       the thread computes while replies arrive, so both handler classes
       preempt it — this is also what caps the rate at the physical
       saturation 1/(W + 2 So). *)
    let quantum =
      if window = 1 then (w +. (params.so *. qq)) /. (1. -. u)
      else begin
        let busy = 2. *. u in
        if busy >= 0.999 then infinity
        else (w +. (params.so *. (qq +. qy))) /. (1. -. busy)
      end
    in
    let kf = Float.of_int window in
    let self_queue = (kf -. 1.) /. kf *. x *. quantum in
    if (not (Float.is_finite quantum)) || self_queue >= 0.999 then None
    else begin
      let rw = quantum /. (1. -. self_queue) in
      Some (rw, rq, ry, u, qq)
    end
  end

let solve ?(window = 1) (params : Params.t) ~w =
  (match Params.validate params with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("Windowed: " ^ reason));
  if window < 1 then invalid_arg "Windowed: window must be at least 1";
  if w < 0. || not (Float.is_finite w) then invalid_arg "Windowed: invalid work value";
  let kf = Float.of_int window in
  (* h x = window / R(x) − x changes sign exactly once in (0, x_max). *)
  let h x =
    match residencies params ~w ~window x with
    | None -> -1.
    | Some (rw, rq, ry, _, _) ->
      let r = rw +. (2. *. params.st) +. rq +. ry in
      (kf /. r) -. x
  in
  (* The rate can never exceed the handler-capacity and BKT-validity
     ceilings; bisect within them. *)
  let x_max =
    Float.min (u_limit /. params.so) (if w > 0. then 1. /. w else infinity) *. 0.999
  in
  let x_lo = 1e-12 in
  let x =
    if h x_max >= 0. then x_max
    else Roots.bisect ~tol:1e-14 ~f:h x_lo x_max
  in
  match residencies params ~w ~window x with
  | None ->
    (* Only reachable if bisection landed on the infeasible edge. *)
    invalid_arg "Windowed: configuration saturates the processors"
  | Some (rw, rq, ry, uq, qq) ->
    let r = rw +. (2. *. params.st) +. rq +. ry in
    {
      window;
      r;
      rw;
      rq;
      ry;
      uq;
      qq;
      node_rate = x;
      throughput = Float.of_int params.p *. x;
      processor_util = x *. (w +. (2. *. params.so));
    }
