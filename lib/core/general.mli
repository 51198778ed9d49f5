(** The general LoPC model (paper Appendix A).

    Removes every homogeneity assumption of §5: each node [c] may run a
    thread with its own mean work [Wc] and its own visit vector [Vck]
    giving the average number of request-handler executions its cycle
    places on node [k]. Row sums may exceed 1 — a request that makes
    multiple network hops executes a handler at every hop (Σ_k Vck = hops
    per cycle). Reply handlers always run at the thread's home node, once
    per cycle.

    Given the per-thread throughputs [Xc], the per-node quantities of
    A.1–A.10 have closed forms (Little's law plus Bard's approximation),
    with the [C²] residual-life correction of §5.2 per node. A thread
    class's cycle time [Rc = Fc(Rc)], the other classes held, is
    bracketed by {!Lopc_numerics.Fixed_point.solve_above_status} (as in
    the all-to-all model); a net with one thread class is that one
    solve. With more, one sweep brackets each class in turn, then Newton
    steps on the vector of class cycle times solve [F(R) − R = 0], each
    from a forward-difference Jacobian and halved until every [Rc] stays
    above its contention-free bound and the residual falls; where no
    step does, a sweep takes its place (DESIGN.md §12).

    A net is given as classes of interchangeable nodes: all members of a
    class run the same work and have the same visit sums into, and from,
    every class (an equitable partition, DESIGN.md §12). Members of a
    class share one throughput, so the input and one iteration are
    O(classes²), not O(P²), and every result is one entry per class.
    [Pattern.to_general] (in [lopc_workloads]) writes each pattern's
    classes in closed form: a hotspot has two classes at any P,
    all-to-all and multi-hop one, client-server two. A per-node net is
    the P-class case, one member per class.

    Setting [protocol_processor] models shared-memory machines: handlers
    execute on a dedicated protocol processor, so [Rwk = Wk] (no BKT
    inflation), while handlers still queue against each other. *)

type node_class = {
  members : int;         (** Nodes in the class, [>= 1]. *)
  first : int;           (** Its smallest member, the node a result
                             names. *)
  work : float option;   (** [Some w]: every member runs a thread with
                             mean work [w] per cycle; [None]: pure
                             servers. *)
  row : float array;     (** [row.(j)]: request-handler executions one
                             member's thread places on all of class [j]
                             together per cycle. The row sum is the mean
                             hop count and must be positive for thread
                             classes. *)
  col : float array;     (** [col.(j)]: request-handler executions all
                             members' threads together place on one node
                             of class [j] per cycle, so
                             [members ·. row.(j) = members_j ·. col.(j)].
                             Both arrays are ignored for servers; all
                             entries are [>= 0.]. *)
}

type t = {
  params : Params.t;          (** [P] must equal the total member count. *)
  classes : node_class array; (** Numbered by smallest member. *)
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

(** Every array holds one entry per class: the value at each of its
    members. *)
type solution = {
  cycle_times : float array;   (** [Rc] ([nan] for servers). *)
  throughputs : float array;   (** [Xc = 1 / Rc] ([0.] for servers). *)
  node_solutions : node_solution array;
  system_throughput : float;   (** [Σ_c Xc] over every node. *)
}

val validate : t -> (t, string) result
(** Shape/sign checks. Each class, in class order, must have: at least
    one member; a smallest member below [P] and above the previous
    class's (class 0's is node 0); one [row] and one [col] entry per
    class, each non-negative and finite; valid work; and a positive row
    sum if it runs a thread. The error names the first defect, checked
    in that order. Then the members must add up to [params.p], a thread
    class's [row] and [col] must agree within 1e-9 relative on its
    visits to every class, and some class must run a thread. A server
    class's [row] and [col] are checked for shape and sign only. *)

val repeated : int -> float -> float
(** [repeated n v] is [v] added [n] times from [0.], as a per-node row
    sums [n] equal visits: class nets written with it hold the per-node
    net's sums bit for bit. *)

val solve_status :
  ?budget:Lopc_robust.Budget.t -> t -> solution option * Lopc_numerics.Fixed_point.status
(** Solve the system A.1–A.10. [Converged] once every thread class's
    cycle time [Rc] satisfies [|Fc(R) − Rc| <= 1e-12 ·. Rc], or, when
    no Newton step lowers that residual, once it is within its
    first-order rounding floor
    [16·ε·max_c (|Fc| + Σ_k |∂Fc/∂Rk|·Rk) / Rc] (past P ≈ 8,000 rounding
    at a hot node keeps it above 1e-12); one thread class: once its
    bracketed solve converges. [iters] counts
    evaluations of a class's cycle-time map, a joint evaluation of all
    [m] thread classes counting [m], and [budget] is consulted once per
    evaluation ([Exhausted] counts every evaluation so far). A
    non-finite time, or 1,000 sweeps and Newton steps without meeting
    either rule, is [Diverged]. There is no
    [Saturated]: each thread's cycle includes the request residence of
    every node it loads, so threads slow down as nodes fill and the
    fixed point has every utilization below 1. Non-converged outcomes
    return no solution.
    @raise Invalid_argument when {!validate} fails. *)
