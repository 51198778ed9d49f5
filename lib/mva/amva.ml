module Fixed_point = Lopc_numerics.Fixed_point

type approximation = Bard | Schweitzer

(* Station [s]'s residence at throughput [x] when an arrival sees
   [arrival_factor] of its queue Q = x·R, in units of [unit] (the
   demand is divided by it). Multi-server stations use the Seidmann
   transformation: a queueing stage of demand D' = D/c plus a fixed
   delay D·(c−1)/c, exact for c = 1. The residual-life correction of
   Eq 5.8 adds (C²−1)/2 of the per-server utilization U = x·D'. With the
   arrival queue f·x·R on both sides, R is the closed form
   R·(1 − f·U) = D·(c−1)/c + D'·(1 + (C²−1)/2·U). *)
let residence ~arrival_factor ~unit x (s : Station.t) =
  let demand = s.demand /. unit in
  match s.kind with
  | Station.Delay -> demand
  | Station.Queueing ->
    let c = Float.of_int s.servers in
    let queue_demand = demand /. c in
    let u = x *. queue_demand in
    let fixed_delay = demand *. (c -. 1.) /. c in
    ((fixed_delay +. (queue_demand *. (1. +. ((s.scv -. 1.) /. 2. *. u))))
     /. (1. -. (arrival_factor *. u))
    [@lint.allow
      "unguarded-division division-by-vanishing"
        "f·U < 1 at every cycle time the solve evaluates: its bracket starts \
         strictly above f·N·max D', where the bottleneck's f·U reaches 1"])

(* Collect every input problem before rejecting, so a caller assembling a
   station array from data sees all bad stations (with their indices) in
   one message instead of fixing them one invalid_arg at a time. *)
let validate_inputs ~think_time ~stations ~population =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  if population < 0 then add "negative population";
  if think_time < 0. || not (Float.is_finite think_time) then
    add (Printf.sprintf "think time must be finite and >= 0, got %g" think_time);
  Array.iteri
    (fun i s ->
      match Station.validate s with
      | Ok _ -> ()
      | Error reason -> add (Printf.sprintf "station %d: %s" i reason))
    stations;
  match List.rev !problems with
  | [] -> ()
  | problems -> invalid_arg ("Amva: " ^ String.concat "; " problems)

(* A lower bound on the cycle time's fixed point R = Z + Σ_k R_k(N/R),
   at which the map is finite. With f ≥ 1/2 (Bard, or Schweitzer at
   N ≥ 2) each R_k grows with X, as C² ≥ 0 makes (C²−1)/2 + f ≥ 0, so
   R_k ≥ R_k(0) = D_k; and R must lie strictly above f·N·max D', where
   the bottleneck's denominator vanishes. At N = 1 under Schweitzer
   (f = 0) the map is Z + Σ D + B/R with B = Σ (C²−1)/2·D'², whose larger
   root lies above (Z + Σ D)/2 — and which has none when
   (Z + Σ D)² + 4B < 0. *)
let lower_bound ~arrival_factor ~contention_free ~n stations =
  let queueing f init =
    Array.fold_left
      (fun acc (s : Station.t) ->
        match s.kind with
        | Station.Delay -> acc
        | Station.Queueing -> f acc (s.demand /. Float.of_int s.servers) s.scv)
      init stations
  in
  if arrival_factor > 0. then
    let bottleneck = queueing (fun acc d _ -> Float.max acc d) 0. in
    Float.max contention_free (arrival_factor *. n *. bottleneck *. (1. +. 1e-12))
  else begin
    let b = queueing (fun acc d scv -> acc +. ((scv -. 1.) /. 2. *. d *. d)) 0. in
    if (contention_free *. contention_free) +. (4. *. b) < 0. then
      invalid_arg
        "Amva: Schweitzer's equations at population 1 have no fixed point (think time plus \
         demand too small for the C2 < 1 correction)";
    contention_free /. 2.
  end

let solve_status ?budget ?(approximation = Bard) ?(think_time = 0.) ~stations ~population () =
  validate_inputs ~think_time ~stations ~population;
  let k = Array.length stations in
  let n = Float.of_int population in
  if population = 0 then
    ( Some
        {
          Solution.throughput = 0.;
          cycle_time = Float.nan;
          residence = Array.map (fun (s : Station.t) -> s.demand) stations;
          queue_length = Array.make k 0.;
          utilization = Array.make k 0.;
        },
      Fixed_point.Converged { iters = 0 } )
  else begin
    let arrival_factor =
      match approximation with Bard -> 1. | Schweitzer -> (n -. 1.) /. n
    in
    let contention_free =
      think_time +. Array.fold_left (fun acc (s : Station.t) -> acc +. s.demand) 0. stations
    in
    if contention_free <= 0. then invalid_arg "Amva: zero total demand with positive population";
    let lb = lower_bound ~arrival_factor ~contention_free ~n stations in
    let overflow () = invalid_arg "Amva: the cycle time or the throughput overflows" in
    if not (Float.is_finite lb) then overflow ();
    (* The search runs in units of lb·2⁻⁴⁰, as General's does: the
       kernel's absolute tolerance then sits below rounding and the map
       stays finite at its bound whatever the time scale, and scaling
       every time by a power of two leaves the search bit for bit the
       same. *)
    let unit = Float.ldexp lb (-40) in
    let cycle_time x =
      (think_time /. unit)
      +. Array.fold_left (fun acc s -> acc +. residence ~arrival_factor ~unit x s) 0. stations
    in
    match
      Fixed_point.solve_above_status ?budget ~f:(fun v -> cycle_time (n /. v)) (lb /. unit)
    with
    | v, (Fixed_point.Converged _ as status) ->
      let x = n /. (v *. unit) in
      if not (Float.is_finite (v *. unit) && Float.is_finite x) then overflow ();
      let residence = Array.map (residence ~arrival_factor ~unit:1. x) stations in
      ( Some
          {
            Solution.throughput = x;
            cycle_time = think_time +. Array.fold_left ( +. ) 0. residence;
            residence;
            queue_length = Array.map (fun r -> x *. r) residence;
            utilization =
              Array.map (fun (s : Station.t) -> x *. s.demand /. Float.of_int s.servers) stations;
          },
        status )
    | _, status -> (None, status)
  end
