(** The paper's evaluation artifacts, one function per table/figure.

    Parameter choices (documented in EXPERIMENTS.md):
    - Figures 5-1/5-2/5-3 use the paper's stated values: [P = 32],
      handler [So = 200] (Fig 5-2/5-3) or [So ∈ {128, 256, 512, 1024}]
      (Fig 5-1, with [W = 1000]), [C² = 0] where stated.
    - The paper does not state the wire latency; we use [St = 40]
      (Alewife-like, small relative to the handlers) everywhere.
    - Figure 6-2 states [P = 32] and [So = 131]; the unstated work per
      chunk is [W = 1000] and handlers are exponential.

    Simulated series use [sim_cycles] measured compute/request cycles per
    point after warm-up; [`Quick] mode shrinks this for fast smoke runs.

    {1 Parallel execution}

    Each artifact is internally a {!plan}: an index-ordered array of
    independent point tasks plus an ordered merge
    ({!Table.of_row_groups}). PRNG streams are derived at plan-build
    time, keyed on (seed, artifact name, point index, replication index)
    — never on scheduling order — so running the tasks on a
    {!Parallel.t} pool produces tables byte-identical to the serial
    run. *)

type fidelity = Quick | Full

val sim_cycles : fidelity -> int
(** Measured cycles per simulated point: 8_000 for [Quick], 60_000 for
    [Full]. *)

type plan = {
  tasks : (unit -> Table.cell list list) array;
      (** One closure per sweep point, each owning its pre-split PRNG
          streams. Independent: safe to run on separate domains. *)
  assemble : Table.cell list list array -> Table.t;
      (** Ordered merge: element [i] must be the rows of [tasks.(i)]. *)
}
(** A single-shot recipe for one artifact. Plans capture mutable PRNG
    streams, so each plan value must be executed at most once; build a
    fresh plan (via {!plans}) for every run. *)

val task_count : plan -> int

val run_plan : ?pool:Parallel.t -> plan -> Table.t
(** Runs the plan's tasks — serially in index order without [pool], on
    the pool's domains otherwise — and assembles the table. Both paths
    return byte-identical tables. *)

val plans :
  ?fidelity:fidelity -> ?seed:int -> ?trace_dir:string -> unit -> (string * plan) list
(** A fresh plan per artifact, keyed by harness name, in the canonical
    reproduction order (the same keys as {!all}).

    With [trace_dir], the simulated artifacts that exercise the machine
    directly (["fig5.2"], ["fig6.2"], ["fault"]) additionally write one
    Chrome-trace JSON file per sweep point into the directory (which must
    exist), named [artifact-label.trace.json]. Each point owns its own
    recorder, so tracing is safe under {!run_plan}'s parallel pools, and
    trace contents — timestamped in simulated cycles only — are
    byte-identical at any job count and do not perturb the tables. *)

val table3_1 : unit -> Table.t
(** Table 3.1: the LoPC ↔ LogP parameter correspondence. *)

val fig5_1 : unit -> Table.t
(** Fig 5-1: fraction of response time devoted to contention as the
    handler [C²] sweeps 0..2, for [So ∈ {128, 256, 512, 1024}],
    [W = 1000], [P = 32]. Model only (as in the paper). *)

val fig5_2 : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Fig 5-2: all-to-all response time vs [W ∈ {2, 4, ..., 2048}] with
    [So = 200], [C² = 0], [P = 32]: contention-free lower bound, LoPC
    numerical solution, Eq 5.12 upper bound, and the simulator. *)

val fig5_3 : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Fig 5-3: per-cycle contention components (thread, request handler,
    reply handler, total) vs [W] on 32 nodes, [So = 200], [C² = 0]:
    LoPC prediction next to simulator measurement. *)

val table5_3 : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** §5.3 accuracy table: signed percent error of LoPC and of the
    contention-free LogP analysis against the simulator across the
    Fig 5-2 sweep, plus the absolute LogP error in handler units
    (the paper's "+6% worst case / −37% worst case / error stays ≈ one
    handler" claims). *)

val fig6_2 : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Fig 6-2: work-pile throughput vs number of servers [Ps = 1..31] on
    [P = 32], [So = 131]: LoPC curve, simulator, the two LogP bounds
    (dotted lines) and the Eq 6.8 optimum marker. *)

val ablation_arrival_theorem : unit -> Table.t
(** Bard vs Schweitzer arrival approximation on the Fig 6-2 network,
    against exact MVA — quantifies the cost of the paper's simpler
    choice. *)

val ablation_priority : unit -> Table.t
(** BKT preempt-resume vs naive shadow-server thread inflation on the
    all-to-all model vs the simulator's measured [Rw]. *)

val ablation_scv_correction : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Effect of dropping the Eq 5.8 residual-life correction when handlers
    are constant ([C² = 0]): model error against the simulator with and
    without the correction. *)

val ablation_solvers : unit -> Table.t
(** Agreement of the three all-to-all solution methods (Brent, damped
    iteration, polynomial roots) across a parameter grid. *)

val shared_memory_comparison : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** §5.1 "Modeling Shared Memory" / §7 future work: interrupt-driven
    message passing vs protocol-processor (shared memory) cycle times,
    model and simulator, across [W]. *)

val windowed_speedup : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** §7 future work: non-blocking (windowed) requests. Per-node completion
    rate for window ∈ 1..8 on the Fig 5-2 machine at [W = 1000],
    model ({!Lopc.Windowed}) vs the simulator's windowed mode, with the
    saturation ceiling [1/(W + 2·So)]. *)

val ablation_multiserver : unit -> Table.t
(** Extension of §6: work-pile throughput when each server node can run
    1, 2 or 4 handler threads concurrently (multi-server stations via the
    Seidmann approximation). Model only. *)

val notification_modes : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** §3 architectural contrast: interrupt-driven (LoPC's assumption) vs
    polling (LogP's CM-5 assumption) vs protocol-processor handler
    execution, model and simulator, across the work grain. Polling wins
    at fine grain (no preemption churn at saturated handlers) and loses
    badly at coarse grain (handlers wait out whole work quanta). *)

val gap_study : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** §3's dropped parameter: cycle-time penalty of a non-zero LogP gap [g]
    (NI bandwidth limit) in model and simulator, plus the largest [g]
    with under 5% slowdown — quantifying when the paper's "balanced
    bandwidth" assumption is safe. *)

val assumptions_audit : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Audits the paper's two tractability simplifications (§2) and Bard's
    approximation (§4) against the simulator: the deepest handler backlog
    ever observed (finite hardware buffers hold ~8 small messages on
    Alewife), and the queue length seen by arriving messages next to the
    steady-state queue Bard equates it with. *)

val network_contention : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** §2's first simplification: replace the contention-free interconnect
    by a 4×8 torus with contended links (model {!Lopc.Torus} and the
    simulator's topology mode) and measure how far link queueing moves
    the cycle time from a contention-free network of equal mean path
    length — at both coarse ([W = 1000]) and extreme fine grain
    ([W = 0]). *)

val exact_comparison : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Monte-Carlo-free validation: the exact CTMC solution of small
    machines (P = 2..4, exponential everything) next to the simulator and
    the LoPC model — the model's true approximation error without
    sampling noise. *)

val degradation_cascade : unit -> Table.t
(** Graceful degradation demo: the cycle time of small machines from the
    best tier whose (deterministic, fuel-based) budget allows it — exact
    CTMC, then the approximate LoPC model, then the contention-free bound
    — with a provenance column naming each row's source and a trail
    column listing the stages that fell through and why. Budgets are
    per-point fuel, so the table is byte-identical at any [--jobs]. *)

val fault_sweep : ?fidelity:fidelity -> ?seed:int -> unit -> Table.t
(** Fault tolerance: faulty all-to-all cycle time across a loss ladder
    ([ℓ ∈ {0, 1, 2, 5}%]) plus duplication and delay-spike scenarios
    stacked on 2% loss, analytical model ({!Lopc.Fault_model}) vs the
    fault-injecting simulator ([P = 16], [W = 1000], [So = 200],
    [C² = 1], timeout 20000, retry budget 10). Also reports the retry
    inflation (model vs measured tries), retransmissions per cycle, and
    the goodput/offered-load ratio. *)

val all :
  ?fidelity:fidelity -> ?seed:int -> ?pool:Parallel.t -> unit -> (string * Table.t) list
(** Every artifact above, keyed by its harness name (["fig5.1"], ...).
    With [pool], each artifact's point tasks are fanned across the
    pool's domains; the output is byte-identical either way. *)
