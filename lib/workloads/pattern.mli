(** Communication patterns, usable by both the analytical model and the
    simulator.

    A pattern is an abstract description of who talks to whom; it can be
    lowered either to the Appendix-A model's classes of interchangeable
    nodes ({!to_general}) or to a simulator machine ({!to_spec}). Keeping the two
    lowerings in one place guarantees model and simulation are validated
    against the {e same} workload. *)

module Distribution = Lopc_dist.Distribution

type t =
  | All_to_all
      (** Homogeneous uniform traffic (§5): every node a thread, each
          request to a uniformly random peer. *)
  | All_to_all_staggered
      (** Deterministic round-robin destinations (the CM-5 style
          "carefully scheduled" pattern of the introduction). Lowers to
          the same classes as {!All_to_all} for the model. *)
  | Client_server of { servers : int }
      (** Work-pile (§6): the low [servers] node ids serve, the rest are
          clients picking servers uniformly. *)
  | Hotspot of { hot : int; fraction : float }
      (** All-to-all where each request goes to node [hot] with the given
          probability, otherwise to a uniform other node — an irregular
          pattern with a contended home node. *)
  | Multi_hop of { hops : int }
      (** All-to-all where each request visits [hops] uniformly chosen
          remote nodes before the reply (Appendix A). *)

val validate : nodes:int -> t -> (t, string) result
(** Check pattern parameters against the machine size. *)

val to_general :
  ?protocol_processor:bool -> Lopc.Params.t -> w:float -> t -> Lopc.General.t
(** Lower to the Appendix-A model instance: the pattern's classes and
    their quotient visits in closed form, so the net has one class
    (all-to-all, staggered, multi-hop, a hotspot with fraction 0) or two
    (client-server, any other hotspot) at any [P].
    @raise Invalid_argument when {!validate} fails against
    [params.p]. *)

val to_spec :
  ?protocol_processor:bool ->
  ?polling:bool ->
  ?fault:Lopc_activemsg.Fault.t ->
  nodes:int ->
  work:Distribution.t ->
  handler:Distribution.t ->
  wire:Distribution.t ->
  t ->
  Lopc_activemsg.Spec.t
(** Lower to a simulator machine with the given service-time
    distributions; [fault] optionally injects the {!Lopc_activemsg.Fault}
    failure layer. @raise Invalid_argument when {!validate} fails. *)

val description : t -> string
(** One-line human-readable name. *)
