(** The one budgeted solve kernel of the model solvers.

    [All_to_all], [Fault_model], [Gap], [Torus], [Windowed], [General]'s
    per-class solves and Bard's AMVA in [Amva] each solve a fixed point
    [R = F R] of a scalar map in the cycle time, with [F] decreasing
    above a lower bound. {!solve_above_status} finds it by bracketing the
    residual [F R − R] from that bound. Each model exports one
    [solve_status] returning [(answer option, status)]; {!get_exn} turns
    that pair into the answer or an {!Unsolved} exception. *)

type status =
  | Converged of { iters : int }
      (** The solve met its tolerance after [iters] evaluations. *)
  | Saturated of { station : int; utilization : float }
      (** A queueing station was driven to (or past) full utilization, so
          no finite fixed point exists. Only [Fault_model] produces it:
          its retry-inflated load can outgrow a node's capacity. The
          kernel itself never reports it. *)
  | Diverged of { iters : int; residual : float }
      (** The solve left the finite domain, found no bracket or used up
          its step cap; [residual] is [|F x − x|] there ([nan] when the
          map produced non-finite values). *)
  | Exhausted of { iters : int; reason : Lopc_robust.Budget.stop_reason }
      (** An explicit {!Lopc_robust.Budget.t} stopped the search —
          fuel ran out or the cancel token flipped — after [iters]
          complete evaluations. Distinct from [Diverged]: exhaustion says the
          caller-imposed allowance ended, not that the map misbehaved. *)
(** Structured solver outcome shared by every fixed-point solver in the
    repository — no solve entry point returns silently without one. *)

val pp_status : Format.formatter -> status -> unit
(** Human-readable rendering, e.g. ["converged in 14 iterations"]. *)

val status_to_string : status -> string
(** [status_to_string s] is {!pp_status} rendered to a string. *)

exception Unsolved of status
(** Raised by {!get_exn} on an outcome without an answer; it carries
    that outcome's status. *)

val get_exn : 'a option * status -> 'a
(** [get_exn (solve_status …)] is the answer of a model's
    [solve_status], for callers that treat any other outcome as an
    error.
    @raise Unsolved with the status when there is no answer. *)

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
