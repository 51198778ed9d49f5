(** Replication pool on OCaml 5 domains.

    The reproduction driver's workload is embarrassingly parallel: every
    figure point is an independent simulator replication whose PRNG stream
    is derived ahead of time (see {!Experiments}), never from scheduling
    order. This pool fans an index-ordered array of such tasks out across
    [jobs] domains and merges the results back {e by task index}, so the
    output of a parallel run is byte-identical to the serial run.

    Scheduling: every batch carries one shared atomic cursor, and each
    worker, the caller included, claims the next task index with a
    fetch-and-add until the cursor passes the end. A slow task holds only
    its own worker; the others keep claiming the rest.

    Determinism contract: the pool guarantees result order, not execution
    order. Tasks must therefore be independent — in particular they must
    not draw from a shared {!Lopc_prng.Rng.t} (the typed lint rule
    [parallel-rng-capture] enforces this statically). *)

type t
(** A pool of worker domains. The creating domain participates in every
    batch, so [jobs = 1] spawns no domains at all and the caller claims
    every task itself, in index order — the serial reference path. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] starts a pool of [jobs] workers ([jobs - 1] spawned
    domains plus the caller). Default {!Domain.recommended_domain_count}.
    @raise Invalid_argument if [jobs < 1], or if the runtime refuses to
    spawn that many domains (OCaml 5.1 allows 128); the workers already
    spawned are stopped and joined first. *)

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
