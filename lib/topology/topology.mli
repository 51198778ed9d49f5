(** 2-D torus interconnect geometry.

    The paper's §2 assumes a contention-free interconnect. To test that
    simplification the simulator can optionally route messages over a
    2-D torus with dimension-order (X-then-Y) minimal routing, where
    every unidirectional link is a serially-reusable resource occupied
    for [link_time] per message and each hop adds [per_hop] propagation.

    Nodes are laid out row-major on a [rows × cols] grid with wrap-around
    in both dimensions. This module is pure geometry — link contention
    lives in {!Machine}. *)

type direction = X_plus | X_minus | Y_plus | Y_minus

type t = {
  rows : int;
  cols : int;
  per_hop : float;   (** Propagation per hop (router + wire pipeline). *)
  link_time : float; (** Link occupancy per message — the contended
                         resource. [0.] makes links contention free. *)
}

val create : ?rows:int -> nodes:int -> per_hop:float -> link_time:float -> unit -> t
(** [create ~nodes ~per_hop ~link_time ()] builds a torus for [nodes]
    processors. [rows] defaults to the largest divisor of [nodes] not
    exceeding its square root (the most nearly square torus).
    @raise Invalid_argument if [nodes < 2], [rows] does not divide
    [nodes], or a time parameter is negative. *)

val coords : t -> int -> int * int
(** [coords t node] is the [(row, col)] of [node].
    @raise Invalid_argument if [node] is out of range. *)

val node_of : t -> row:int -> col:int -> int
(** Inverse of {!coords} (coordinates taken modulo the torus size). *)

val distance : t -> src:int -> dst:int -> int
(** Minimal hop count between two nodes. *)

val route : t -> src:int -> dst:int -> (int * direction) list
(** The links crossed by a message under X-then-Y dimension-order minimal
    routing, each identified by the node it leaves and the outgoing
    direction. Empty for [src = dst]. Ties on even rings break toward the
    positive direction. *)

val mean_distance : t -> float
(** Average {!distance} to a destination chosen uniformly among the other
    [rows·cols − 1] nodes (the homogeneous all-to-all traffic of §5). *)

val mean_offsets : t -> float * float
(** [(mean |dx|, mean |dy|)] under the same uniform destination choice;
    they sum to {!mean_distance}. *)

val direction_index : direction -> int
(** Stable index in [0..3] for per-link bookkeeping arrays. *)
