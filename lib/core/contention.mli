(** The per-node equations every LoPC model is built from (§5, App. A).

    A node's request handlers run at utilization [a], its reply handlers
    at [b]. Bard's arrival approximation with the §5.2 residual-life term
    gives [Qq = a·(1 + Qq + Qy + β(a+b)) + e] and [Qy = b·(1 + Qq + β·a)];
    a compute thread preempted by [Q] handlers of utilization [U] resides
    [(W + So·Q) / (1 − U)] per work quantum (BKT, Eq 5.7). *)

val beta : Params.t -> float
(** [β = (C² − 1) / 2]. *)

val queues : beta:float -> extra:float -> float -> float -> float * float
(** [queues ~beta ~extra a b] is [(Qq, Qy)] in closed form,
    [Qq = (a·(1 + b + β(a+b) + β·a·b) + e) / (1 − a − a·b)], where [e] is
    [extra], a wait request handlers pay before service ([0.] except when
    polling). Requires [1 − a − a·b > 0]. *)

val reply_queue : beta:float -> float -> float -> float -> float
(** [reply_queue ~beta a b qq] is [Qy] given [Qq]. *)

val thread_residence : w:float -> so:float -> queue:float -> util:float -> float
(** BKT: [(w + so·queue) / (1 − util)]. Requires [util < 1]. *)

val deterministic_residence : service:float -> lambda:float -> float
(** Bard residence at an FCFS station with constant service and arrival
    rate [lambda]: [service·(1 − U/2) / (1 − U)], [U = lambda·service];
    [infinity] once [U ≥ 0.999]. *)
