(** Float interval lattice with explicit NaN tracking — the abstract
    domain of the numeric stage ([Absint]).

    An element abstracts a set of runtime [float] values: [range]
    over-approximates the real-valued members (a closed interval whose
    bounds may be infinite), [nan] records whether NaN may be among
    them. Bottom is [{range = None; nan = false}] (no value reaches this
    point); [{range = None; nan = true}] is "NaN and nothing else"; top
    admits every float including NaN. Ints are abstracted into the same
    domain (exactly, up to 2^53).

    Transfer functions are sound without directed rounding because IEEE
    rounding is monotone: evaluating an operation at interval corners in
    float arithmetic brackets every concrete result. NaN-producing corner
    cases (inf - inf, 0 * inf, 0/0, x/0) set the [nan] flag
    conservatively. *)

type t = private { range : (float * float) option; nan : bool }

val bot : t
val top : t

(** NaN and nothing else. *)
val nan_only : t

(** [v lo hi] is the NaN-free interval \[lo, hi\]. Raises [Invalid_argument]
    if [lo > hi] or either bound is NaN. *)
val v : float -> float -> t

(** Singleton; [const nan] is [nan_only]. *)
val const : float -> t

val is_bot : t -> bool
val is_top : t -> bool
val equal : t -> t -> bool

(** Lattice order: [leq a b] iff every value [a] admits, [b] admits. *)
val leq : t -> t -> bool

val join : t -> t -> t
val meet : t -> t -> t

(** [widen old next] extrapolates unstable bounds to the nearest member of
    a fixed threshold set ({-∞, -1, 0, 1, +∞}), so any ascending chain of
    widenings stabilises in a bounded number of steps. *)
val widen : t -> t -> t

val contains_zero : t -> bool
val may_nan : t -> bool

(** Transfer functions for float arithmetic (corner evaluation). *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val sqrt_ : t -> t
val exp_ : t -> t

(** Refinement by a comparison guard that is known to hold:
    [refine t ~cmp ~bound] is the meet of [t] with [{x | x cmp bound}].
    Strict comparisons use [Float.pred]/[Float.succ] ([± 1] when
    [int_typed]). A guard that holds also proves the value is not NaN
    (every comparison is false on NaN) unless [keep_nan] — pass
    [~keep_nan:true] when refining by the {e negation} of a guard, where
    NaN remains possible. *)
val refine :
  t ->
  cmp:[ `Lt | `Le | `Gt | `Ge | `Eq ] ->
  bound:float ->
  int_typed:bool ->
  keep_nan:bool ->
  t

(** Stable rendering used by [--show-intervals] and findings: ["_|_"],
    ["top"], ["NaN"], or ["\[lo, hi\]"] with an [" or-NaN"] suffix when NaN
    is possible; bounds formatted with [%g]. *)
val to_string : t -> string
