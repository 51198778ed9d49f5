(** The general LoPC model (paper Appendix A).

    Removes every homogeneity assumption of §5: each node [c] may run a
    thread with its own mean work [Wc] and its own visit vector [Vck]
    giving the average number of request-handler executions its cycle
    places on node [k]. Row sums may exceed 1 — a request that makes
    multiple network hops executes a handler at every hop (Σ_k Vck = hops
    per cycle). Reply handlers always run at the thread's home node, once
    per cycle.

    The equation system (A.1–A.10) is solved by damped fixed-point
    iteration on the per-thread throughputs [Xc]; given [Xc] the
    per-node quantities have closed forms (Little's law plus Bard's
    approximation), including the [C²] residual-life correction of §5.2
    applied per node.

    Setting [protocol_processor] models shared-memory machines: handlers
    execute on a dedicated protocol processor, so [Rwk = Wk] (no BKT
    inflation), while handlers still queue against each other. *)

type node_spec = {
  work : float option;   (** [Some w]: this node runs a thread with mean
                             work [w] per cycle; [None]: pure server. *)
  visits : float array;  (** [visits.(k) = Vck]: mean request-handler
                             executions at node [k] per cycle of this
                             node's thread. Ignored when [work = None].
                             All entries [>= 0.]; the row sum is the mean
                             hop count and must be positive for thread
                             nodes. *)
}

type t = {
  params : Params.t;          (** [P] must equal the node count. *)
  nodes : node_spec array;
  protocol_processor : bool;
}

type node_solution = {
  rq : float;  (** Request-handler residence [Rqk]. *)
  ry : float;  (** Reply-handler residence [Ryk]. *)
  rw : float;  (** Thread residence [Rwk] ([nan] for pure servers). *)
  qq : float;  (** Request handlers present, [Qqk]. *)
  qy : float;  (** Reply handlers present, [Qyk]. *)
  uq : float;  (** Utilization by request handlers, [Uqk]. *)
  uy : float;  (** Utilization by reply handlers, [Uyk]. *)
}

type solution = {
  cycle_times : float array;   (** [Rc] per node ([nan] for servers). *)
  throughputs : float array;   (** [Xc = 1 / Rc] per node ([0.] for
                                   servers). *)
  node_solutions : node_solution array;
  system_throughput : float;   (** [Σ_c Xc]. *)
}

val validate : t -> (t, string) result
(** Shape/sign checks: [params.p] equals the node count, visit vectors
    have length [P] with non-negative entries, thread rows have positive
    sums, at least one node runs a thread. *)

val solve_status :
  ?budget:Lopc_robust.Budget.t ->
  ?tol:float -> ?max_iter:int -> t -> solution option * Lopc_numerics.Fixed_point.status
(** Solve the system A.1–A.10 and report a structured outcome. When the
    iteration stalls, the last iterate is inspected: a node whose
    request-handler utilization reached (or passed) 1 is reported as
    [Saturated] with the node index, anything else as [Diverged].
    [budget] is consulted once per fixed-point iteration; a budget stop
    is reported as [Exhausted] verbatim (no saturation re-diagnosis).
    Non-converged outcomes return no solution.
    @raise Invalid_argument when {!validate} fails. *)

val solve : ?tol:float -> ?max_iter:int -> t -> solution
(** Raising variant of {!solve_status}.
    @raise Invalid_argument when {!validate} fails.
    @raise Lopc_numerics.Fixed_point.Diverged on any non-converged
    outcome (e.g. a node saturated by handler load). *)
