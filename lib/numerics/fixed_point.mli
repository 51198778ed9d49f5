(** Fixed points of scalar and vector maps.

    The AMVA equation systems in this library are all of the form
    [x = F x] with [F] a contraction (or close to one) near the solution.
    These solvers iterate [F] with optional under-relaxation (damping),
    which is how MVA systems are conventionally solved. The scalar LoPC
    cycle-time maps are instead solved by bracketing
    ({!solve_above_status}). *)

type status =
  | Converged of { iters : int }
      (** The iteration met its tolerance after [iters] steps. *)
  | Saturated of { station : int; utilization : float }
      (** A queueing station was driven to (or past) full utilization, so
          no finite fixed point exists. Produced by the model-level solvers
          that know which station saturated ([Amva], [Fault_model]); the
          raw iteration itself never reports it. *)
  | Diverged of { iters : int; residual : float }
      (** The iteration left the finite domain or used up [max_iter];
          [residual] is the last max-norm of [F x − x] ([nan] when the map
          produced non-finite values). *)
  | Exhausted of { iters : int; reason : Lopc_robust.Budget.stop_reason }
      (** An explicit {!Lopc_robust.Budget.t} stopped the iteration —
          fuel ran out or the cancel token flipped — after [iters]
          complete steps. Distinct from [Diverged]: exhaustion says the
          caller-imposed allowance ended, not that the map misbehaved. *)
(** Structured solver outcome shared by every fixed-point solver in the
    repository — no solve entry point returns silently after [max_iter]. *)

val pp_status : Format.formatter -> status -> unit
(** Human-readable rendering, e.g. ["converged in 14 iterations"]. *)

val status_to_string : status -> string
(** [status_to_string s] is {!pp_status} rendered to a string. *)

exception Diverged of string
(** Raised by the model solvers' raising [solve] entry points when the
    iteration produces non-finite values or exhausts its budget without
    meeting the tolerance. New code should prefer the [_status]
    variants. *)

val solve_scalar_status :
  ?budget:Lopc_robust.Budget.t ->
  ?damping:float ->
  ?tol:float ->
  ?max_iter:int ->
  f:(float -> float) ->
  float ->
  float * status
(** [solve_scalar_status ~f x0] iterates [x <- (1−d)·x + d·f x] from
    [x0] until [|f x − x| <= tol ·. max 1. |x|]. [damping] [d] defaults
    to [1.] (plain iteration), [tol] to [1e-10], [max_iter] to [10_000].
    It is the length-1 case of {!solve_vector_status}. Returns the last
    iterate together with a structured {!status}. On
    [Diverged _] the returned float is the last finite iterate (not a
    solution). [budget], when given,
    is consulted once at the top of every iteration (one unit of fuel per
    iteration); when it stops the run the result is
    [Exhausted _] and the returned float is the last iterate. After
    [max_iter] steps the status is [Diverged _] whose [residual] is
    [|f x − x|] at the last iterate, or [nan] when [f x] is not finite.
    Only raises [Invalid_argument] on a bad [damping]. *)

val solve_vector_status :
  ?budget:Lopc_robust.Budget.t ->
  ?damping:float ->
  ?tol:float ->
  ?max_iter:int ->
  f:(float array -> float array) ->
  float array ->
  float array * status
(** [solve_vector_status ~f x0] iterates [x <- (1−d)·x + d·f x] from
    [x0] until the max norm of [f x − x] is at most [tol ·. max 1. ‖x‖∞],
    with the defaults of {!solve_scalar_status}. [f] must return an array
    of the same length as its input; a map that changes the length is
    [Diverged _] with a [nan] residual. Returns the fixed point (on
    [Converged _]) or the last finite iterate, which model-level callers
    use to diagnose saturation. [budget] is as in
    {!solve_scalar_status}. Only
    raises [Invalid_argument] on a bad [damping]. *)

val solve_above_status :
  ?budget:Lopc_robust.Budget.t ->
  f:(float -> float) ->
  float ->
  float * status
(** [solve_above_status ~f lb] finds the fixed point [r = F r] of a map
    [F] at or above the lower bound [lb] — the LoPC cycle time, where [F]
    decreases above the contention-free bound (§5.3). When [F lb <= lb]
    the answer is [lb] itself; otherwise {!Roots.brent_above} runs on the
    residual [F r − r] from [lb]. Every evaluation of [F] consumes one
    unit of [budget] fuel (checked before the evaluation);
    [Converged { iters }] counts the evaluations.
    Returns [(r, Converged _)] on success, [(lb, Diverged _)] with
    residual [|F lb − lb|] (not counted) when no bracket is found, and
    [(lb, Exhausted _)] when the budget stops the search. A non-finite
    [lb], or a non-finite [F r − r] at any evaluation, is
    [(lb, Diverged { residual = nan })], never [Converged]. Only [f] can
    raise. *)
