(** Service stations of a closed queueing network.

    A station is described by its scheduling kind and the per-cycle
    service demand [D = V ·. S] (visit ratio times mean service time), the
    standard MVA parameterization. The optional squared coefficient of
    variation feeds the residual-life correction of approximate MVA
    (paper Eq 5.8); exact MVA ignores it. *)

type kind =
  | Queueing  (** Single-server FCFS queue — customers wait. *)
  | Delay     (** Infinite-server "think" station — no waiting. *)

type t = {
  kind : kind;
  demand : float [@lopc.cost] [@lopc.unit "cycles"];
      (** Per-cycle service demand [V ·. S], [>= 0.]. *)
  scv : float [@lopc.cost];
      (** Squared coefficient of variation of service time. *)
  servers : int;   (** Parallel servers at the station ([1] = classic
                       FCFS). Multi-server stations are handled by the
                       approximate solvers with the Seidmann
                       transformation: a queueing stage of demand [D/c]
                       plus a pure delay of [D·(c−1)/c]. *)
}

val queueing : ?scv:float -> ?servers:int -> demand:float -> unit -> t
(** FCFS station; [scv] defaults to [1.] (exponential), [servers] to [1].
    @raise Invalid_argument if [demand < 0.], [scv < 0.] or
    [servers < 1]. *)

val validate : t -> (t, string) result
(** Check the invariants stated above. *)
