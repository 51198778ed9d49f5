(** LoPC for client-server work-pile algorithms (paper §6).

    A machine of [P] nodes is split into [Ps] servers and [Pc = P − Ps]
    clients. Each client repeatedly processes a chunk of work ([W] cycles)
    and requests the next chunk from a uniformly chosen server; servers
    run no compute thread of their own. The model answers two questions:

    - the full throughput curve [X(Ps)] (Fig 6-2), from a Bard-style AMVA
      on the closed network of [Pc] customers cycling through a think
      stage [W + 2·St + So] and one of [Ps] identical queueing servers;
    - the optimal allocation (Eq 6.8): at maximum throughput the mean
      number of requests at each server is exactly 1, which collapses the
      model to closed form:
      [Rs = So·(1 + sqrt((C²+1)/2))],
      [R = W + 2·St + Rs + So],
      [Ps* = P·Rs / (R + Rs)].

    The client side is contention free — a client receives only its own
    reply and its thread is blocked when the reply arrives — so only the
    servers queue. *)

type solution = {
  servers : int;        (** [Ps] of this evaluation. *)
  clients : int;        (** [Pc = P − Ps]. *)
  throughput : float;   (** Chunks completed per cycle, [X]. *)
  cycle_time : float;   (** Mean client cycle [R]. *)
  server_residence : float;  (** [Rs]: queueing + service at a server. *)
  server_queue : float; (** Mean requests at one server, [Qs]. *)
  server_util : float;  (** Server utilization [Us]. *)
}

val throughput : ?threads_per_server:int -> Params.t -> w:float -> servers:int -> solution
(** [throughput params ~w ~servers] evaluates the model at one partition.
    [threads_per_server] (default [1]) models server nodes able to run
    that many handlers concurrently (e.g. multiple protocol threads) via
    the multi-server station approximation — an extension beyond the
    paper's single-threaded servers.
    @raise Invalid_argument unless [0 < servers < P], [w >= 0.] and
    [threads_per_server >= 1]. *)

val server_residence_at_optimum : Params.t -> float
(** [Rs = So·(1 + sqrt((C²+1)/2))] (Eq 6.6) — e.g. [2·So] when
    [C² = 1]. *)

val optimal_servers_real : Params.t -> w:float -> float
(** Eq 6.8 before rounding: [P·Rs / (R + Rs)]. *)

val optimal_servers : Params.t -> w:float -> int
(** The integer partition maximizing model throughput: the better of the
    floor and ceiling of {!optimal_servers_real} (clamped to
    [\[1, P−1\]]). *)
