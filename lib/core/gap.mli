(** Testing the paper's "g is irrelevant" assumption (§3).

    LogP includes a gap parameter [g] — the minimum spacing between
    consecutive messages through a node's network interface — which LoPC
    drops on the argument that modern NIs have bandwidth balanced with the
    processor's message rate. This module puts that claim on a
    quantitative footing: it extends the homogeneous all-to-all model with
    two FIFO NI stations per node (send and receive side, constant service
    [g]) and measures how the cycle time departs from the [g = 0] model.

    Per compute/request cycle each node's send NI passes two messages (its
    own request plus one reply on behalf of its peers) and likewise the
    receive NI, so each NI is an FCFS station with arrival rate [2/R] and
    constant service [g]; Bard's approximation gives the per-passage
    residence [g·(1 − g/R) / (1 − 2g/R)], and the cycle pays four
    passages:

    [R = Rw + 2·St + Rq + Ry + 4·R_ni].

    The matching simulator behaviour is enabled by the [gap] field of
    {!Lopc_activemsg.Spec.t}. *)

type solution = {
  gap : float;
  r : float;              (** Cycle time with the NI model. *)
  r_without_gap : float;  (** The ordinary LoPC cycle time ([g = 0]). *)
  ni_residence : float;   (** Residence per NI passage (wait + [g]). *)
  ni_utilization : float; (** Utilization of each NI, [2·g/R]. *)
  penalty : float;        (** Relative slowdown, [r / r_without_gap − 1]. *)
}

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  ?gap:float ->
  Params.t ->
  w:float ->
  solution option * Lopc_numerics.Fixed_point.status
(** [solve_status ~gap params ~w] solves the gap-extended model. [gap]
    defaults to [0.] (recovering {!All_to_all.solve_status} exactly). It
    first solves the [g = 0] model for [r_without_gap] and, when
    [g > 0], then brackets the NI-extended map from {!lower_bound}; the
    status is the first solve's when it fails or [g = 0], the second's
    otherwise, so [Converged { iters }] counts the second solve's
    evaluations. [budget] spans both solves, one unit of fuel per
    evaluation.
    @raise Invalid_argument if [gap < 0.] or [w < 0.]. *)

val lower_bound : gap:float -> Params.t -> w:float -> float
(** Contention-free cycle with NIs: [W + 2·St + 4·g + 2·So]. *)

val tolerable_gap : Params.t -> w:float -> float
(** [tolerable_gap params ~w] is the largest [g] whose modeled slowdown
    stays below 5% — a concrete answer to "when is LoPC's no-gap
    assumption safe?". Grows with [W] and [So]: the busier the
    processor, the more NI spacing it can hide. *)
