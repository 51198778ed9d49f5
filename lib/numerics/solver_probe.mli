(** Per-iteration solver telemetry.

    A probe is a callback the fixed-point solvers (and the model-level
    solvers built on them) invoke once per iteration with the residual,
    the damping in force, the current iterate, and — when the caller
    knows station semantics — the hottest station. It makes convergence
    *inspectable*: a diverging AMVA run shows which station's
    utilization is being driven past 1 long before the iteration budget
    runs out.

    Probes are passive: solvers ignore their return value and behave
    identically with or without one (same iterates, same status). *)

type event = {
  iter : int;  (** 1-based iteration (or function-evaluation) count. *)
  residual : float;
      (** Max-norm of [F x − x] at this iterate (scalar: [|f x − x|]). *)
  damping : float;  (** Under-relaxation factor in force. *)
  iterate : float array;  (** The iterate [x] (copied; safe to keep). *)
  hottest : (int * float) option;
      (** [(station, utilization)] of the most utilized queueing station
          at this iterate, when the solver knows station semantics;
          [None] from the raw fixed-point iteration. *)
}

type t = event -> unit
(** Probes must not raise: an exception thrown from a probe escapes the
    [solve_status] entry points ([exn-escape] holds only for the
    solvers' own code). *)
