(** Real polynomials with closed-form low-degree root solvers.

    §5.3 of the paper observes that the homogeneous all-to-all LoPC system
    reduces to a quartic in the cycle time [R]. This module provides the
    closed-form quadratic/cubic/quartic solvers (with Newton polishing) so
    the model can be solved either symbolically or via the generic
    iterations in {!Fixed_point}. *)

type t = private float array
(** A polynomial with real coefficients, lowest order first; the leading
    coefficient is non-zero except for the zero polynomial [\[|0.|\]]. *)

val of_coeffs : float array -> t
(** [of_coeffs [|c0; c1; ...; cn|]] represents [c0 + c1·x + ... + cn·xⁿ].
    Trailing (high-order) zero coefficients are trimmed.
    @raise Invalid_argument on an empty array or non-finite
    coefficients. *)

val eval : t -> float -> float
(** Horner evaluation. *)

val derivative : t -> t
(** Formal derivative. *)

val real_roots : t -> float array
(** All real roots (with multiplicity collapsed to distinct values),
    sorted ascending. Closed forms are used through degree 4; higher
    degrees fall back to recursive interval subdivision between the roots
    of the derivative. Roots are Newton-polished.
    @raise Invalid_argument on the zero polynomial (every point is a
    root). *)
