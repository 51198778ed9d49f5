(** Generic continuous-time Markov chain steady-state solver.

    Given an initial state and a transition function, the solver explores
    the reachable state space, builds the generator as a compressed
    sparse-row matrix in the same single pass, and computes the stationary
    distribution by Gauss–Seidel sweeps on the balance equations (falling
    back to uniformized power iteration when the chain is not strongly
    connected). Used to validate the simulator and to measure the LoPC
    approximations exactly (no Monte-Carlo noise) on machines small
    enough to enumerate. *)

type 'state solution
(** Stationary distribution over the reachable states. *)

type iteration =
  | Auto
      (** Gauss–Seidel when the reachable chain is strongly connected
          (unique stationary distribution), power iteration otherwise.
          The default. *)
  | Power
      (** Uniformized power iteration [pi <- pi (I + Q/lambda)] — the
          historical method, kept as the unconditionally safe reference. *)
  | Gauss_seidel
      (** Balance-equation Gauss–Seidel on the incoming-transition matrix.
          Far fewer sweeps than [Power] on stiff chains; requires every
          state to have an exit (it falls back to the power path mid-solve
          if a sweep goes non-finite). *)

exception State_space_too_large of int
(** The state budget a raising caller reports when {!solve_status}
    returns [Too_large]. A [transitions] function may raise it to impose
    its own cap; {!solve_status} maps it to [Too_large] as well. *)

type status =
  | Converged of { iters : int }
      (** Power iteration met its tolerance after [iters] sweeps. *)
  | Not_converged of { iters : int; diff : float }
      (** [max_iter] sweeps without meeting the tolerance; [diff] is the
          last scaled L1 residual [||pi Q||_1 / lambda]. The returned
          distribution is the last iterate. *)
  | Exhausted of { reason : Lopc_robust.Budget.stop_reason }
      (** The budget stopped exploration or iteration; no solution. *)
  | Too_large of { max_states : int }
      (** Exploration exceeded [max_states]; no solution. *)

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  ?iteration:iteration ->
  ?max_states:int ->
  ?tol:float ->
  ?max_iter:int ->
  initial:'state ->
  transitions:('state -> ('state * float) list) ->
  unit ->
  'state solution option * status
(** [solve_status ~initial ~transitions ()] computes the stationary
    distribution of the irreducible CTMC reachable from [initial].
    [transitions s] lists [(successor, rate)] pairs with strictly positive
    rates (duplicate successors are summed; self-loops ignored). Defaults:
    [iteration = Auto], [max_states = 2_000_000], [tol = 1e-12],
    [max_iter = 200_000]. States must be usable as [Hashtbl] keys
    (structural equality). State-space overflow comes back as [Too_large],
    a non-converged iteration is reported with its last scaled L1
    residual, and [budget] — consulted once per explored state and once
    per sweep, whatever the [iteration] method — stops the computation
    with [Exhausted]. Every method renormalizes the iterate each sweep, so
    [sum pi = 1] holds to rounding error regardless of sweep count, and
    declares convergence on the residual of the current iterate (never on
    the raw successive step alone). Only raises [Invalid_argument] (on a
    non-finite or negative rate). *)

val fold : 'state solution -> init:'acc -> f:('acc -> 'state -> float -> 'acc) -> 'acc
(** [fold sol ~init ~f] folds [f] over every reachable state [s] and its
    stationary probability [π(s)]. States come in discovery order (the
    order exploration first reached them), never in [Hashtbl] bucket
    order, so a floating-point sum built by [f] is a function of the model
    alone and is bit-for-bit reproducible. *)
