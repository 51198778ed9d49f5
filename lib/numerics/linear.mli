(** Small dense linear algebra.

    The multi-class general LoPC model (Appendix A) occasionally needs a
    direct solve of a small linear system (e.g. balancing visit ratios
    from a routing matrix). Gaussian elimination with partial pivoting is
    ample at these sizes (P ≤ a few hundred). *)

exception Singular
(** Raised when the system matrix is (numerically) singular. *)

val solve : float array array -> float array -> float array
(** [solve a b] returns [x] with [a ·. x = b]. [a] is row-major and left
    unmodified. @raise Invalid_argument on dimension mismatch.
    @raise Singular when no unique solution exists. *)
