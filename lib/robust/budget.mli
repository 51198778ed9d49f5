(** Deterministic computation budgets: fuel plus optional cancellation.

    Fuel counts units of program progress — solver iterations, simulator
    events, root-finder evaluations — never wall time, so whether a
    budgeted computation exhausts is a pure function of its inputs and
    results stay byte-identical at any [--jobs] setting. A wall-clock
    watchdog, where wanted, lives in [bin/] and acts by flipping the
    attached {!Cancel.t}; the [determinism-taint] lint keeps clocks off
    every path from the simulator, the solvers and [lib/obs]. *)

type stop_reason =
  | Cancelled  (** The attached {!Cancel.t} (or an ancestor) was cancelled. *)
  | Fuel_exhausted of { fuel : int }
      (** The fuel allowance ran out; [fuel] is the original allowance. *)

val reason_to_string : stop_reason -> string

type t
(** A budget. Sharable across domains (the fuel counter is atomic), but
    deterministic artifacts give each task its own budget so exhaustion
    points do not depend on scheduling. *)

val create : ?fuel:int -> ?cancel:Cancel.t -> unit -> t
(** [create ~fuel ~cancel ()] allows [fuel] calls to {!check} before
    reporting exhaustion. Omitting [fuel] means unlimited fuel
    (cancellation only); omitting [cancel] means fuel only. Raises
    [Invalid_argument] on negative fuel; [~fuel:0] exhausts on the first
    check. *)

val check : t -> stop_reason option
(** Consume one unit of fuel. [None] means keep going; [Some reason] means
    stop now and surface [reason] (as an [Exhausted] solver status or an
    interrupted simulation). Cancellation is checked first and does not
    consume fuel. Once exhausted, every later call keeps returning
    [Some (Fuel_exhausted _)]. *)

exception Stop of stop_reason
(** The budget stop a solver raises inside a callback it cannot return
    through (a root finder's residual, a sweep loop) and catches at its own
    [solve_status] boundary, mapping it onto an [Exhausted] status. It
    never escapes a [solve_status]. *)

val check_exn : t option -> unit
(** [check_exn budget] is {!check} on [Some budget], raising {!Stop}
    instead of returning [Some reason]; [None] checks nothing. *)

val remaining : t -> int option
(** Fuel left, or [None] for unlimited. Never negative. *)
