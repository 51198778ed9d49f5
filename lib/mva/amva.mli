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

    Stations whose fields are equal bit for bit (so [-0.] and [0.] differ)
    form a class, and the iteration keeps one queue per class: the
    Fig 6-2 curve's [Ps] identical servers are one queue at any [Ps]. The
    result is bit-identical to iterating one queue per station: every sum
    over stations is still taken in station order, from the class values,
    and the stopping rule's max-norms are unchanged when entries repeat
    (DESIGN.md §12). The results have one entry per station. *)

type approximation =
  | Bard        (** Arrival queue = steady-state queue. *)
  | Schweitzer  (** Arrival queue = (N−1)/N × steady-state queue. *)

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  ?approximation:approximation ->
  ?think_time:float ->
  ?tol:float ->
  ?max_iter:int ->
  stations:Station.t array ->
  population:int ->
  unit ->
  Solution.t option * Lopc_numerics.Fixed_point.status
(** [solve_status ~stations ~population ()] iterates the AMVA equations to
    a fixed point and reports a structured outcome. [approximation]
    defaults to [Bard] (the paper's), [think_time] to [0.].

    [Converged] carries the solution; when the iteration stalls the last
    iterate is inspected and a queueing station at (or past) full
    per-server utilization is reported as [Saturated] (station index and
    utilization), anything else as [Diverged]. Non-converged outcomes
    return no solution.

    [budget] is consulted once per fixed-point iteration; a budget stop
    is reported as [Exhausted] verbatim, never re-diagnosed as
    saturation.

    @raise Invalid_argument on invalid inputs: a negative population, a
    negative or non-finite [think_time], or an invalid station. Unlike
    {!Exact_mva.solve}, every problem is reported at once, stations with
    their index — e.g. ["Amva: think time must be finite and >= 0, got
    nan; station 2: station scv must be finite and >= 0, got -1"]. *)

val solve :
  ?approximation:approximation ->
  ?think_time:float ->
  ?tol:float ->
  ?max_iter:int ->
  stations:Station.t array ->
  population:int ->
  unit ->
  Solution.t
(** Raising variant of {!solve_status}.
    @raise Invalid_argument on invalid inputs (as {!solve_status}).
    @raise Lopc_numerics.Fixed_point.Diverged on any non-converged
    outcome, with the rendered status as message. *)
