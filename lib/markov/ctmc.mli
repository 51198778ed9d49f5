(** Generic continuous-time Markov chain steady-state solver.

    Given an initial state and a transition function, the solver explores
    the reachable state space, builds the generator as a sparse matrix in
    the same single pass, and computes the stationary distribution by
    Gauss–Seidel sweeps on the balance equations (falling back to
    uniformized power iteration when the chain is not strongly
    connected). Used to validate the simulator and to measure the LoPC
    approximations exactly (no Monte-Carlo noise) on machines small
    enough to enumerate.

    A solve is two steps, and a caller may keep the first. {!explore}
    builds the reachable graph with each move carrying a label instead of
    a rate; {!solve} prices the labels and sweeps. A caller whose chains
    share one graph and differ only in rates explores once and solves it
    under each rate map. {!solve_status} is the two steps at once, with
    each rate its own label. *)

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
(** A [transitions] function may raise it to impose its own cap;
    {!solve_status} and {!explore} map it to [Too_large]. *)

type status =
  | Converged of { iters : int }
      (** The sweeps, Gauss–Seidel or power, met the tolerance after
          [iters] sweeps. The residual tested is the scaled L1 residual
          [||pi Q||_1 / lambda] of the returned iterate. *)
  | Not_converged of { iters : int; diff : float }
      (** [max_iter] sweeps without meeting the tolerance; [diff] is the
          last scaled L1 residual [||pi Q||_1 / lambda]. The returned
          distribution is the last iterate. *)
  | Exhausted of { reason : Lopc_robust.Budget.stop_reason }
      (** The budget stopped exploration or the sweeps; no solution. *)
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
    distribution of the irreducible CTMC reachable from [initial]: it
    explores with each rate as its move's label, then solves.
    [transitions s] lists [(successor, rate)] pairs (duplicate successors
    are summed; self-loops ignored). A zero rate is dropped as it is
    explored, so its successor is not discovered through it. Defaults:
    [iteration = Auto], [max_states = 2_000_000], [tol = 1e-12],
    [max_iter = 200_000]. States must be usable as [Hashtbl] keys
    (structural equality). State-space overflow comes back as [Too_large],
    a non-converged iteration is reported with its last scaled L1
    residual, and [budget] — consulted once per explored state and once
    per counted sweep, whatever the [iteration] method — stops the
    computation with [Exhausted]. Every method renormalizes the iterate
    each sweep, so [sum pi = 1] holds to rounding error regardless of
    sweep count, and declares convergence on the residual of the current
    iterate (never on the raw successive step alone). Gauss–Seidel
    computes an iterate's residual inside the sweep that follows it, so a
    converged Gauss–Seidel solve runs one sweep more than its [iters]
    reports; that sweep is discarded and costs no fuel. Only raises
    [Invalid_argument], on a negative or non-finite rate, when
    exploration meets it. *)

type ('state, 'label) graph
(** The chain reachable from one initial state, each move carrying the
    label its [transitions] gave it, with the sweep the chain admits
    already chosen. Never written after {!explore} returns it, so one
    graph may be solved on several domains at once. *)

val explore :
  ?budget:Lopc_robust.Budget.t ->
  ?iteration:iteration ->
  ?max_states:int ->
  initial:'state ->
  transitions:('state -> ('state * 'label) list) ->
  unit ->
  (('state, 'label) graph, status) result
(** [explore ~initial ~transitions ()] explores the states reachable from
    [initial] breadth first, in discovery order. [transitions s] lists
    [(successor, label)] pairs; every pair is kept, duplicate successors
    as separate moves, and a move back to [s] is dropped. [budget] is
    consulted once per expanded state. More than [max_states] (default
    [2_000_000]) discovered states, or a [transitions] that raises
    {!State_space_too_large}, gives [Error (Too_large _)], a budget stop
    [Error (Exhausted _)]. [iteration] (default [Auto]) fixes the sweep
    now: [Auto] picks Gauss–Seidel when the graph is strongly connected,
    which holds for every pricing {!solve} accepts. *)

val size : (_, _) graph -> int
(** States in the graph. *)

val state : ('state, _) graph -> int -> 'state
(** [state g i] is the [i]-th state discovered, [0 <= i < size g]. *)

val discovered : (_, _) graph -> int -> int
(** [discovered g i] is how many states had been discovered once state
    [i]'s moves were explored: what exploration compared with
    [max_states] after expanding [i]. A caller that replays the
    exploration's budget and cap checks on a kept graph reads it. *)

val solve :
  ?budget:Lopc_robust.Budget.t ->
  ?tol:float ->
  ?max_iter:int ->
  ('state, 'label) graph ->
  price:('label -> float) ->
  'state solution option * status
(** [solve g ~price] prices each move once, in exploration order, and
    sweeps to the stationary distribution with the method {!explore}
    chose. Every label must price strictly positive and finite: a label
    that prices to zero, a negative or a non-finite rate raises
    [Invalid_argument] before the first sweep (the graph keeps every
    move, so a zero rate would leave a move the sweep choice counted on).
    [budget] is consulted once per counted sweep; [tol] and [max_iter]
    are as in {!solve_status}, and so is the one discarded sweep after a
    converged Gauss–Seidel solve, which costs no fuel. Exploring once and solving under several pricings
    gives, bit for bit, what {!solve_status} gives on the priced
    transitions. *)

val fold : 'state solution -> init:'acc -> f:('acc -> 'state -> float -> 'acc) -> 'acc
(** [fold sol ~init ~f] folds [f] over every reachable state [s] and its
    stationary probability [π(s)]. States come in discovery order (the
    order exploration first reached them), never in [Hashtbl] bucket
    order, so a floating-point sum built by [f] is a function of the model
    alone and is bit-for-bit reproducible. *)
