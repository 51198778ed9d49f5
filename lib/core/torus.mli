(** Testing the contention-free-interconnect assumption (§2).

    LoPC models the network as a pure delay [St]. This module replaces it
    with a 2-D torus whose unidirectional links are contended resources
    (occupancy [link_time] per message, [per_hop] propagation), so the
    assumption can be checked quantitatively: when is link queueing small
    enough that a single [St] number suffices?

    For homogeneous all-to-all traffic on a [rows × cols] torus with
    dimension-order routing, each node injects two messages per cycle
    (its request and one reply on its peers' behalf) which cross
    [mean_distance] links on average; by symmetry each of the [4·P]
    links carries rate [X ·. mean_distance / 2] and behaves as an FCFS
    queue with constant service [link_time]. Each crossing then costs

    [per_hop + link_time·(1 − U/2)/(1 − U)]   with [U] the link
    utilization — the same Bard/M-D-1 form as the NI model of {!Gap} —
    and the cycle-time fixed point replaces [2·St] by [2·mean_distance]
    such crossings.

    The matching simulator behaviour is enabled by the [topology] field
    of {!Lopc_activemsg.Spec.t}. *)

module Topology = Lopc_topology.Topology

type solution = {
  r : float;                (** Cycle time over the contended torus. *)
  r_contention_free : float;
      (** Cycle time if the torus were contention free with the same
          mean path length ([St = mean_distance·(per_hop + link_time)]). *)
  link_utilization : float; (** Utilization of each link. *)
  crossing_residence : float;
      (** Mean time per link crossing (wait + occupancy + hop). *)
  mean_distance : float;    (** Average hops per message. *)
  penalty : float;          (** [r / r_contention_free − 1]: the error of
                                the paper's assumption. *)
}

val solve : Params.t -> topology:Topology.t -> w:float -> solution
(** [solve params ~topology ~w] solves the torus-extended all-to-all
    model. [params.st] is ignored (the topology defines the network);
    [params.p] must equal the torus size.
    @raise Invalid_argument on mismatched sizes or invalid [w].
    @raise Lopc_numerics.Fixed_point.Diverged if no fixed point is
    bracketed. *)
