(** Exact steady-state analysis of a small LoPC machine.

    Enumerates the continuous-time Markov chain of the paper's §2
    machine running homogeneous blocking all-to-all traffic with
    exponential work, handler and wire times (the model's default
    [C² = 1] setting), over its node-permutation orbits (below), and
    solves it with {!Ctmc}. The chain captures
    exactly what the event-driven simulator executes — FIFO handler
    queues, preempt-resume threads (free under memoryless work), blocking
    requests — so it provides a Monte-Carlo-free third pillar next to the
    simulator and the approximate LoPC model:

    - exact vs simulator: validates the simulator to solver tolerance;
    - exact vs LoPC: measures the Bard/BKT approximation error itself.

    State: per node, the phase of its (single) outstanding cycle —
    working, request in the wire toward node [d], request in node [d]'s
    FIFO, reply in the wire, reply in its own FIFO — plus the FIFO
    content of every node's handler queue. A node owns at most one queued
    item, so each FIFO is fully described by its items' positions, and a
    state packs exactly into one immediate [int]: node [i] contributes the
    digit [code_i·p + pos_i] (its [2p + 3]-valued phase code and its
    item's position, [< p]) in base [(2p + 3)·p]. Successors are computed
    by digit arithmetic on scratch arrays.

    Orbits. Destinations are uniform, so relabelling the nodes maps the
    chain onto itself, and its node-permutation orbits are an exact
    lumping. The solver explores orbits only, each named by its smallest
    key over all [p!] relabellings ({!canonical}, found by branch and
    bound over places), and every reported quantity is a per-node
    average over all [p] nodes. The state space grows quickly:
    [p = 2] has 27 states in 16 orbits, [p = 3] 412 in 80, [p = 4] 8 865
    in 438 and [p = 5] 246 096 in 2 422.

    One exploration per [p]. The orbit graph depends on [p] alone: each
    move is labelled with what sets its rate (a request issued, a message
    off the wire, a handler completing), never with W, So or St. The
    first solve of a [p] whose exploration completes publishes that
    labelled graph, as the {!Ctmc.graph} it explored, with each orbit's
    size and the four counts the aggregates weigh (about 0.47 MB at
    [p = 5]). Later solves of the same [p], on any domain, replay the
    exploration's checks, price the three rates and sweep. A refused or
    budget-stopped exploration publishes nothing. A [p = 5] solve takes
    about 9 ms cold and 1.1 ms warm (2-core x86-64 host). *)

type result = {
  states : int;
      (** Reachable CTMC states of the unlumped chain: the sum of the
          explored orbits' sizes. *)
  cycle_time : float;     (** Exact mean compute/request cycle time [R]. *)
  throughput : float;     (** Exact per-node cycle completion rate. *)
  qq : float;             (** Exact mean request handlers per node. *)
  qy : float;             (** Exact mean reply handlers per node. *)
  uq : float;             (** Exact utilization by request handlers. *)
  uy : float;             (** Exact utilization by reply handlers. *)
}

val max_nodes : int
(** Largest [p] whose packed states fit in an [int], derived from the
    encoding: 8 on 64-bit platforms, far past any chain that can be
    enumerated. Beyond it {!all_to_all_status} reports [Too_large]
    without exploring. *)

type machine
(** Scratch space for decoding the states of one [p]-node chain and
    naming their orbits. *)

val machine : int -> machine
(** [machine p], for [2 <= p <= max_nodes]. *)

val canonical : machine -> int -> int * int
(** [canonical m key] is [(min, ties)]: the smallest key over all [p!]
    relabellings of the packed digits [key], and how many relabellings
    reach it. A relabelling [s] moves node [i]'s digit to place [s i] and
    renames the destination inside codes [1 + d] and [1 + p + d] to
    [s d]. [ties] is the size of [key]'s stabiliser, so its orbit holds
    [p! / ties] keys. Any [key] whose [p] digits are below [(2p + 3)·p]
    is accepted, reachable or not. *)

val all_to_all_status :
  ?budget:Lopc_robust.Budget.t ->
  ?max_states:int ->
  p:int -> w:float -> so:float -> st:float -> unit ->
  result option * Ctmc.status
(** [all_to_all_status ~p ~w ~so ~st ()] solves the [p]-node machine
    exactly. All times must be strictly positive (exponential rates);
    [p >= 2]. State-space overflow, a non-converged power iteration, and
    budget stops come back as a {!Ctmc.status} instead of an exception
    or a silent wrong answer. [max_states] bounds the unlumped state
    count and defaults to [2_000_000]: exploration stops with [Too_large] once the
    orbits expanded so far hold more than [max_states] states, so a chain
    too large for the cap is refused although its orbits would fit; it
    also stops once more than [max_states] orbits are discovered, which
    {!Ctmc.explore} refuses on its own. [budget] is consulted once per
    explored orbit and once per counted sweep (see {!Ctmc.solve}). A
    warm solve, whose [p] has a published chain, replays all of this in
    the cold order: before each orbit one unit of fuel, then the two
    caps, then one unit per counted sweep;
    so its status and the fuel it spends are those of a cold solve.
    [p > max_nodes] returns [(None, Too_large { max_states })] at once.
    Only raises [Invalid_argument]: on invalid machine parameters, and,
    once exploration or its replay has finished, on a rate that does not
    come out finite (a W, So or St so small that its reciprocal
    overflows, such as [w = 5e-324]). *)
