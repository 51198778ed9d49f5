module Topology = Lopc_topology.Topology

(** Machine and workload specification for the active-message simulator.

    Mirrors the architectural assumptions of paper §2: [nodes] processors
    on a contention-free interconnect with infinitely deep hardware
    message queues. Each node may run one compute thread that alternates
    local work with blocking requests; request handlers run atomically at
    high priority and preempt the thread (unless a protocol processor is
    present, §5.1 "Modeling Shared Memory"). *)

module Distribution = Lopc_dist.Distribution

type route = Lopc_prng.Rng.t -> int list
(** [route rng] samples the chain of nodes a request visits, in order.
    A one-element list is the ordinary single-hop request; longer lists
    model the "multi-hop" requests of Appendix A. The reply returns
    directly from the last hop to the originating node. *)

type thread = {
  work : Distribution.t;  (** Local work [W] between blocking requests. *)
  route : route;          (** Destination chain sampler. *)
  window : int;           (** Maximum outstanding requests. [1] is the
                              paper's blocking model; larger values give
                              the non-blocking communication of §7 (the
                              thread keeps working until the window
                              fills). *)
}

type t = {
  nodes : int;                       (** [P], number of processors. *)
  threads : thread option array;     (** Per-node compute thread; [None]
                                         for pure servers. *)
  handler : Distribution.t;          (** Request-handler service time [So]. *)
  reply_handler : Distribution.t;    (** Reply-handler service time
                                         (the paper uses the same [So]). *)
  wire : Distribution.t;             (** Interconnect latency [St] per hop. *)
  protocol_processor : bool;         (** When [true], handlers execute on a
                                         dedicated per-node protocol
                                         processor and never preempt the
                                         thread (shared-memory mode). *)
  gap : float;                       (** LogP's [g]: minimum spacing between
                                         consecutive messages through a
                                         node's network interface, applied
                                         independently on the send and
                                         receive sides. [0.] (the paper's
                                         assumption of balanced bandwidth)
                                         disables the NI entirely. *)
  polling : bool;                    (** When [true], message notification
                                         is by polling (LogP's CM-5
                                         assumption): handlers never
                                         preempt a running thread and only
                                         execute at request-issue points or
                                         while the thread is blocked.
                                         Mutually exclusive with
                                         [protocol_processor]. *)
  initial_delay : (int -> float) option;
      (** Optional per-node start offset for the first cycle, e.g. to
          stagger an otherwise lock-step pattern. *)
  barrier : barrier option;
      (** Optional global barrier: every thread waits after each
          [interval] completed cycles until all threads arrive, then all
          restart simultaneously - the CM-5-style resynchronization the
          paper's introduction discusses ("extra barriers ... to
          resynchronize the communication pattern"). *)
  topology : Topology.t option;
      (** See the note above the type. *)
  fault : Fault.t option;
      (** Optional fault-injection and recovery layer ({!Fault}): message
          loss/duplication/delay spikes, per-node outage windows, and a
          timeout–retransmit protocol with sequence-number duplicate
          suppression. Requires blocking threads ([window = 1]),
          single-hop routes and [topology = None]. [None] keeps the
          paper's perfectly reliable interconnect. *)
}

and barrier = {
  interval : int;  (** Cycles per thread between barriers, [>= 1]. *)
  cost : float;    (** Time consumed by the barrier itself once the last
                       thread arrives, [>= 0.] (very low on the CM-5,
                       expensive elsewhere, per section 1). *)
}

(** When a {!Topology.t} is supplied in [topology], messages are routed
    over the torus with contended links and the [wire] distribution is
    ignored; [None] keeps the paper's contention-free interconnect. *)

val validate : t -> (t, string) result
(** Check node count, array lengths, route targets are checked at run
    time; distribution parameters are validated here. *)

val uniform_other : nodes:int -> origin:int -> route
(** Single-hop route to a uniformly random node other than [origin] — the
    homogeneous all-to-all pattern of §5. *)

val round_robin : nodes:int -> origin:int -> route
(** Deterministic single-hop route cycling through [origin+1, origin+2,
    ...] (mod [nodes]) — the "carefully staggered" all-to-all pattern
    discussed in the introduction. The returned closure is stateful. *)

val uniform_server : servers:int -> route
(** Single-hop route to a uniformly random node in [\[0, servers)] — the
    client-server pattern of §6 (servers occupy the low node ids). *)

val hotspot : nodes:int -> origin:int -> hot:int -> fraction:float -> route
(** With probability [fraction] go to node [hot], otherwise to a uniform
    other node (≠ origin). Models irregular traffic skew.
    @raise Invalid_argument if [fraction] is outside [\[0,1\]] or
    [hot] out of range. *)

val multi_hop : nodes:int -> origin:int -> hops:int -> route
(** Route visiting [hops] distinct uniformly chosen nodes (≠ origin),
    for exercising the Appendix-A multi-hop equations. *)

val all_to_all :
  ?protocol_processor:bool ->
  ?polling:bool ->
  ?gap:float ->
  ?staggered:bool ->
  ?window:int ->
  ?fault:Fault.t ->
  nodes:int ->
  work:Distribution.t ->
  handler:Distribution.t ->
  wire:Distribution.t ->
  unit ->
  t
(** Homogeneous all-to-all machine (§5): every node runs a thread with the
    given work distribution; [staggered] (default [false]) uses
    {!round_robin} instead of {!uniform_other}; [window] defaults to [1]
    (blocking requests). *)
