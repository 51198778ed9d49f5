(** Work-stealing replication pool on OCaml 5 domains.

    The reproduction driver's workload is embarrassingly parallel: every
    figure point is an independent simulator replication whose PRNG stream
    is derived ahead of time (see {!Experiments}), never from scheduling
    order. This pool fans an index-ordered array of such tasks out across
    [jobs] domains and merges the results back {e by task index}, so the
    output of a parallel run is byte-identical to the serial run.

    Scheduling: the task index space is partitioned into one contiguous
    range per worker; a worker drains its own range from the front and,
    when empty, steals the upper half of the largest remaining range of
    another worker. Stolen ranges land in the thief's own deque and can be
    stolen again, so imbalance (e.g. one slow simulated point) cascades
    across the pool instead of serialising it.

    Determinism contract: the pool guarantees result order, not execution
    order. Tasks must therefore be independent — in particular they must
    not draw from a shared {!Lopc_prng.Rng.t} (the typed lint rule
    [parallel-rng-capture] enforces this statically). *)

type t
(** A pool of worker domains. The creating domain participates in every
    batch as worker 0, so [jobs = 1] spawns no domains at all and runs
    tasks inline, in index order — the serial reference path. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] starts a pool of [jobs] workers ([jobs - 1] spawned
    domains plus the caller). Default {!Domain.recommended_domain_count}.
    @raise Invalid_argument if [jobs < 1]. *)

val run : t -> (unit -> 'a) array -> 'a array
(** [run pool tasks] executes every task and returns their results in task
    order: [(run pool tasks).(i)] is the value of [tasks.(i) ()], whatever
    worker ran it and in whatever order. If tasks raise, the exception of
    the lowest-indexed failing task is re-raised (deterministically) after
    all tasks have settled, with the backtrace captured at the original
    raise site in the worker ([Printexc.raise_with_backtrace]), not a
    fresh one from the merge point. Batches are serialised per pool: concurrent
    [run] calls on one pool from several domains are not supported.
    @raise Invalid_argument when called on a shut-down pool. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent. After shutdown the
    pool rejects new batches. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, even when [f] raises. *)
