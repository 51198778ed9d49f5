(** Fitting LoPC's architectural parameters to measurements.

    §3 derives [St] and [So] from hardware documentation; in practice one
    often has the opposite: measured cycle times of a micro-benchmark at
    several work grains and no precise handler cost. This module inverts
    the model — given observations [(W_i, R_i)] from homogeneous
    all-to-all runs it finds the [(St, So)] whose LoPC predictions fit
    best in the least-squares sense, using Nelder–Mead on a
    log-parameterized objective (which keeps both parameters positive).

    {b Identifiability.} [St] and [So] are nearly degenerate in the
    cycle time — to first order only [2·St + 2·So] and the contention
    term (driven by [So]) are visible, so the unconstrained fit recovers
    the {e curve} far better than the individual parameters. When the
    wire latency is known (a ping-pong micro-benchmark measures it
    directly), pass [fixed_st] to pin it and the handler cost becomes
    well identified. *)

type fit = {
  params : Params.t;        (** Fitted parameter set. *)
  residual : float;         (** Root-mean-square error of the fit, in
                                cycles. *)
  relative_residual : float; (** RMS error relative to the RMS observed
                                 cycle time. *)
}

val fit :
  ?c2:float ->
  ?fixed_st:float ->
  p:int ->
  observations:(float * float) list ->
  unit ->
  fit
(** [fit ~p ~observations ()] estimates [(St, So)] from
    [(work, measured cycle time)] pairs. [c2] (default [1.]) is the
    assumed handler variability; the search starts at
    [(St, So) = (10, 100)]; [fixed_st] pins the wire latency and fits only [So] (see
    the identifiability note above).
    @raise Invalid_argument with fewer than two observations, a
    non-positive measured time, or negative work. *)

val predictions : fit -> observations:(float * float) list -> (float * float * float) list
(** [predictions f ~observations] is [(w, measured, fitted)] for each
    observation — convenient for printing the fit quality. *)
