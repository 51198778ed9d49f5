(** Approximate Mean Value Analysis for single-class closed networks.

    Replaces the exact Arrival Theorem recursion with an estimate of the
    queue length seen at arrival instants, turning the O(N·K) recursion
    into a fixed point independent of N:

    - {b Bard} (paper's choice, [2]): arrival queue ≈ steady-state queue
      [Q_k(N)]. Slightly pessimistic — it counts the arriving customer's
      own contribution — with the error vanishing as N grows (§4).
    - {b Schweitzer}: arrival queue ≈ [(N−1)/N ·. Q_k(N)], the standard
      refinement, more accurate at small N.

    When a station has non-exponential service ([scv ≠ 1]) the residual
    life correction of paper Eq 5.8 replaces the full first-in-service
    time by [(1 + C²)/2] of it:
    [R_k = D_k ·. (1 + Q_k^arr + (C²−1)/2 ·. U_k)].

    With the arrival queue written as [f ·. X ·. R_k] ([f] = 1 for Bard,
    [(N−1)/N] for Schweitzer) each station's residence is a closed form
    in the throughput [X = N/R]; multi-server stations use the Seidmann
    transformation ([D' = D/c] queueing plus a fixed [D·(c−1)/c]):

    {v
    R_k ·. (1 − f·X·D') = D·(c−1)/c + D'·(1 + (C²−1)/2 · X·D')
    v}

    so the cycle time is one scalar fixed point [R = Z + Σ_k R_k(N/R)],
    summed in station order, which {!Lopc_numerics.Fixed_point.solve_above_status}
    brackets from a lower bound: the larger of [Z + Σ D] and a value
    just above [f·N·max D'] (at N = 1 under Schweitzer, where [f = 0],
    half of [Z + Σ D]). A
    closed network cannot saturate a station: every root has
    [f·X·D' < 1] at each station, so the solve never reports
    [Saturated]. The results have one entry per station. *)

type approximation =
  | Bard        (** Arrival queue = steady-state queue. *)
  | Schweitzer  (** Arrival queue = (N−1)/N × steady-state queue. *)

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  ?approximation:approximation ->
  ?think_time:float ->
  stations:Station.t array ->
  population:int ->
  unit ->
  Solution.t option * Lopc_numerics.Fixed_point.status
(** [solve_status ~stations ~population ()] solves the AMVA equations by
    one bracketed search on the cycle time and reports a structured
    outcome. [approximation] defaults to [Bard] (the paper's),
    [think_time] to [0.]. [Converged { iters }] carries the solution and
    counts evaluations of the cycle-time map; other outcomes return no
    solution.

    [budget] is consulted once per evaluation of the map (one unit of
    fuel each); a budget stop is reported as [Exhausted].

    @raise Invalid_argument on invalid inputs: a negative population, a
    negative or non-finite [think_time], or an invalid station; a
    positive population with zero total demand; a cycle time or a
    throughput that overflows; or Schweitzer at population 1 with a [C² < 1] correction
    too strong for the think time and demand, where the equations have
    no fixed point. Unlike
    {!Exact_mva.solve}, every problem is reported at once, stations with
    their index — e.g. ["Amva: think time must be finite and >= 0, got
    nan; station 2: station scv must be finite and >= 0, got -1"]. *)
