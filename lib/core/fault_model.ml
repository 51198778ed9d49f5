module Fixed_point = Lopc_numerics.Fixed_point

type config = {
  drop : float [@lopc.prob];
  duplicate : float [@lopc.prob];
  delay_epsilon : float [@lopc.prob];
  spike_mean : float [@lopc.cost];
  timeout : float [@lopc.cost] [@lopc.unit "cycles"];
  backoff : int -> float;
  max_tries : int;
}

let config ?(drop = 0.) ?(duplicate = 0.) ?(delay_epsilon = 0.) ?(spike_mean = 0.)
    ?(backoff = fun _ -> 1.) ?(max_tries = 8) ~timeout () =
  ({ drop; duplicate; delay_epsilon; spike_mean; timeout; backoff; max_tries }
  [@lint.allow
    "probability-range negative-cost"
      "raw constructor arguments: every solver entry point runs [validate] before \
       using the record"])

let validate c =
  if not (Float.is_finite c.drop) || c.drop < 0. || c.drop >= 1. then
    Error "Fault_model: drop probability must lie in [0, 1)"
  else if not (Float.is_finite c.duplicate) || c.duplicate < 0. || c.duplicate > 1.
  then Error "Fault_model: duplication probability must lie in [0, 1]"
  else if
    not (Float.is_finite c.delay_epsilon)
    || c.delay_epsilon < 0. || c.delay_epsilon > 1.
  then Error "Fault_model: delay-spike weight must lie in [0, 1]"
  else if not (Float.is_finite c.spike_mean) || c.spike_mean < 0. then
    Error "Fault_model: spike mean must be finite and >= 0"
  else if not (Float.is_finite c.timeout) || c.timeout <= 0. then
    Error "Fault_model: timeout must be positive and finite"
  else if c.max_tries < 1 then Error "Fault_model: retry budget must be >= 1"
  else Ok c

(* P(at least one copy of a message is delivered): the primary copy
   survives with 1 − ℓ; with probability d the network emits a second copy
   and at least one of the two survives with 1 − ℓ². *)
let delivery_probability c =
  ((1. -. c.duplicate) *. (1. -. c.drop))
  +. (c.duplicate *. (1. -. (c.drop *. c.drop)))

(* A try succeeds when the request reaches the handler and a reply makes it
   back; the two directions fail independently. (Multiple delivered request
   copies generate extra replies, slightly raising the true success odds —
   a second-order effect this first-order model ignores.) *)
let per_try_failure c =
  let pd = delivery_probability c in
  1. -. (pd *. pd)

(* E[tries per cycle] with retry budget B: sum_{n=0}^{B-1} q^n — the
   ISSUE's 1/(1−ℓ) retry inflation, refined to a per-try round-trip
   failure q and truncated at the budget. *)
let expected_tries c =
  let q = per_try_failure c in
  let acc = ref 0. and qn = ref 1. in
  for _ = 1 to c.max_tries do
    acc := !acc +. !qn;
    qn := !qn *. q
  done;
  !acc

(* Fraction of cycles abandoned after B unanswered tries. *)
let failure_probability c = per_try_failure c ** Float.of_int c.max_tries

(* Mean deliveries per transmission attempt: the surviving copies. *)
let deliveries_per_try c = (1. -. c.drop) *. (1. +. c.duplicate)

(* Request-handler deliveries per completed cycle — the handler-demand
   inflation: every delivered copy (retransmitted or duplicated) costs a
   full handler service even when the dedup check flags it. *)
let handler_load c = expected_tries c *. deliveries_per_try c

(* Mean wire time per traversal under the ε-mixture of spikes. *)
let effective_wire c (params : Params.t) =
  ((1. -. c.delay_epsilon) *. params.st) +. (c.delay_epsilon *. c.spike_mean)

(* Expected total timeout waiting on a cycle that eventually succeeds:
   the j-th backoff T(j) is paid iff at least j tries fail, so
   E = Σ_{j=1}^{B−1} T(j)·(q^j − q^B)/(1 − q^B). Failed tries replace the
   round trip — the successful try then pays the ordinary residences. *)
let expected_timeout_wait c =
  let q = per_try_failure c in
  if q <= 0. || c.max_tries <= 1 then 0.
  else begin
    let qb = q ** Float.of_int c.max_tries in
    let acc = ref 0. and qj = ref q in
    for j = 1 to c.max_tries - 1 do
      acc := !acc +. (c.timeout *. c.backoff j *. (!qj -. qb));
      qj := !qj *. q
    done;
    (!acc /. (1. -. qb)
    [@lint.allow
      "unguarded-division division-by-vanishing"
        "1 - q^B > 0 since q < 1 (drop < 1 forces pd > 0)"])
  end

type solution = {
  r : float;
  terms : All_to_all.terms;
  throughput : float;
  tries : float;
  timeout_wait : float;
  load : float;
  failure_rate : float;
}

(* The per-node terms are the all-to-all ones at request load kq =
   handler_load; the map is R = Rw + E_wait + 2·St_eff + Rq + Ry. *)
let terms c params ~w r =
  All_to_all.terms ~execution:Interrupt ~load:(handler_load c) params ~w r

let fixed_point_map c (params : Params.t) ~w r =
  let t = terms c params ~w r in
  t.rw +. expected_timeout_wait c +. (2. *. effective_wire c params) +. t.rq +. t.ry

let solution_of_r c (params : Params.t) ~w r =
  {
    r;
    terms = terms c params ~w r;
    throughput = Float.of_int params.p /. r;
    tries = expected_tries c;
    timeout_wait = expected_timeout_wait c;
    load = handler_load c;
    failure_rate = failure_probability c;
  }

let solve_status ?budget c (params : Params.t) ~w =
  Params.check ~who:"Fault_model" params ~w;
  Result.iter_error invalid_arg (validate c);
  let kq = handler_load c in
  let a = kq *. params.so in
  let b = params.so in
  (* Positive root of 1 − a/r − a·b/r² = 0: below it the queue kernel's
     denominator is non-positive and the request station is saturated. *)
  let r_floor = (a +. Float.sqrt ((a *. a) +. (4. *. a *. b))) /. 2. in
  let lb = w +. expected_timeout_wait c +. (2. *. effective_wire c params) +. (2. *. b) in
  let solve_from start =
    Fixed_point.solve_above_status ?budget ~f:(fixed_point_map c params ~w) start
  in
  let solution (r, status) =
    match status with
    | Fixed_point.Converged _ -> (Some (solution_of_r c params ~w r), status)
    | status -> (None, status)
  in
  if r_floor >= lb then begin
    (* The saturation floor sits above the contention-free bound: a fixed
       point must exist strictly above the floor. The kernel answers
       [start] itself exactly when F start <= start, i.e. when there is
       none. *)
    let start = r_floor *. (1. +. 1e-9) in
    match solve_from start with
    | r, Fixed_point.Converged _ when r <= start ->
      ( None,
        Fixed_point.Saturated
          {
            station = 0;
            utilization =
              (a
              /. start
              [@lint.allow
                "division-by-vanishing"
                  "start > r_floor >= sqrt(a*b) > 0: a and b are positive once \
                   [validate] accepts the parameters"]);
          } )
    | result -> solution result
  end
  else
    (* F lb <= lb is degenerate but healthy: the fixed point is at (or
       below) the contention-free bound, and the kernel answers [lb]. *)
    solution (solve_from lb)

let solve c params ~w = Fixed_point.get_exn (solve_status c params ~w)
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]
