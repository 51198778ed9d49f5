(** The paper's evaluation artifacts, one {!plan} per table/figure.

    Parameter choices (documented in EXPERIMENTS.md):
    - Figures 5-1/5-2/5-3 use the paper's stated values: [P = 32],
      handler [So = 200] (Fig 5-2/5-3) or [So ∈ {128, 256, 512, 1024}]
      (Fig 5-1, with [W = 1000]), [C² = 0] where stated.
    - The paper does not state the wire latency; we use [St = 40]
      (Alewife-like, small relative to the handlers) everywhere.
    - Figure 6-2 states [P = 32] and [So = 131]; the unstated work per
      chunk is [W = 1000] and handlers are exponential.

    Simulated series measure 60_000 compute/request cycles per point after
    warm-up; [Quick] fidelity shrinks this to 8_000 for fast smoke runs.

    {1 Parallel execution}

    Each artifact is internally a {!plan}: an index-ordered array of
    independent point tasks plus an ordered merge
    ({!Table.of_row_groups}). PRNG streams are derived at plan-build
    time, keyed on (seed, artifact name, point index, replication index)
    — never on scheduling order — so running the tasks on a
    {!Parallel.t} pool produces tables byte-identical to the serial
    run. *)

type fidelity = Quick | Full

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

val run_plan : pool:Parallel.t -> plan -> Table.t
(** Runs the plan's tasks on [pool] and assembles the table, which is
    byte-identical at any job count (a jobs-1 pool is the serial run). *)

val plans :
  ?fidelity:fidelity -> ?seed:int -> ?trace_dir:string -> unit -> (string * plan) list
(** A fresh plan per artifact, keyed by the artifact name that
    [lopc_cli sweep] takes (["table3.1"], ["fig5.1"], ...), in the
    canonical reproduction order. [fidelity] defaults to [Full] and
    [seed] to [42].

    With [trace_dir], the simulated artifacts that exercise the machine
    directly (["fig5.2"], ["fig6.2"], ["fault"]) additionally write one
    Chrome-trace JSON file per sweep point into the directory (which must
    exist), named [artifact-label.trace.json]. Each point owns its own
    recorder, so tracing is safe under {!run_plan}'s parallel pools, and
    trace contents — timestamped in simulated cycles only — are
    byte-identical at any job count and do not perturb the tables. *)
