(** Scalar root finding.

    Solving the LoPC all-to-all model amounts to finding the fixed point of
    a decreasing map [F] — equivalently a root of [fun r -> F r -. r] —
    which §5.3 notes is a quartic. These solvers do that robustly without
    assuming polynomial structure. *)

exception No_bracket
(** Raised when a bracketing interval does not actually bracket a sign
    change. *)

val brent :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** [brent ~f lo hi] finds a root with Brent's method — inverse quadratic
    interpolation and secant steps guarded by bisection; superlinear on
    smooth functions, never worse than bisection.
    @raise No_bracket if the interval does not bracket a sign change. *)

val brent_above : f:(float -> float) -> float -> float
(** [brent_above ~f lo] finds a root of [f] at or above [lo]: it expands
    a bracket upward from [lo] geometrically (initial step
    [max 1 (|lo|/10)], doubling) until [f] changes sign, then runs
    {!brent} on it. This is how both the LoPC
    fixed point (above its contention-free lower bound) and the
    increasing-function search of [Gap] are found.
    @raise No_bracket if no sign change is found before the bracket's
    upper end overflows to infinity. *)
