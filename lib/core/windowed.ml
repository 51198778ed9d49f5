module Fixed_point = Lopc_numerics.Fixed_point

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
  Params.check ~who:"Windowed" params ~w;
  1. /. (w +. (2. *. params.so))

(* Golden-ratio bound: the closed forms need 1 − u − u² > 0. *)
let u_limit = (sqrt 5. -. 1.) /. 2.

(* All per-slot residencies implied by a candidate per-node rate x;
   returns None when x saturates a denominator (rate infeasible). *)
let residencies (params : Params.t) ~w ~window x =
  let u = params.so *. x in
  if u >= u_limit *. 0.999 then None
  else begin
    let qq, qy = Contention.queues ~beta:(Contention.beta params) ~extra:0. u u in
    let rq = qq /. x in
    let ry = qy /. x in
    (* Window 1: the thread is blocked whenever its reply handler runs, so
       only request handlers interfere (the paper's Eq 5.7). Window >= 2:
       the thread computes while replies arrive, so both handler classes
       preempt it — this is also what caps the rate at the physical
       saturation 1/(W + 2 So). *)
    let quantum =
      if window = 1 then Contention.thread_residence ~w ~so:params.so ~queue:qq ~util:u
      else begin
        let busy = 2. *. u in
        if busy >= 0.999 then infinity
        else Contention.thread_residence ~w ~so:params.so ~queue:(qq +. qy) ~util:busy
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

let solve_status ?budget ?(window = 1) (params : Params.t) ~w =
  Params.check ~who:"Windowed" params ~w;
  if window < 1 then invalid_arg "Windowed: window must be at least 1";
  let kf = Float.of_int window in
  (* The rate can never exceed the handler-capacity and BKT-validity
     ceilings, so the slot cycle R = window / X is at least [lb]. *)
  let x_max =
    Float.min (u_limit /. params.so) (if w > 0. then 1. /. w else infinity) *. 0.999
  in
  let lb =
    (kf /. x_max
    [@lint.allow
      "division-by-vanishing"
        "x_max > 0: Params.check admits only a finite So > 0 and W >= 0"])
  in
  (* The search runs on R in units of lb·2⁻⁴⁰, as Amva's does: the
     kernel's absolute tolerance then sits below rounding whatever the
     time scale, and scaling every time by a power of two leaves the
     search bit for bit the same. A cycle time whose rate saturates a
     denominator maps to [max_float], above every R, so the search moves
     up and away from it. *)
  let unit = Float.ldexp lb (-40) in
  let f v =
    match residencies params ~w ~window (kf /. (v *. unit)) with
    | None -> Float.max_float
    | Some (rw, rq, ry, _, _) -> (rw +. (2. *. params.st) +. rq +. ry) /. unit
  in
  match Fixed_point.solve_above_status ?budget ~f (lb /. unit) with
  | v, (Fixed_point.Converged { iters } as status) -> (
    let x = kf /. (v *. unit) in
    match residencies params ~w ~window x with
    | None -> (None, Fixed_point.Diverged { iters; residual = Float.abs (f v -. v) })
    | Some (rw, rq, ry, uq, qq) ->
      ( Some
          {
            window;
            r = rw +. (2. *. params.st) +. rq +. ry;
            rw;
            rq;
            ry;
            uq;
            qq;
            node_rate = x;
            throughput = Float.of_int params.p *. x;
            processor_util = x *. (w +. (2. *. params.so));
          },
        status ))
  | _, status -> (None, status)
