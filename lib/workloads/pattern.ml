module Distribution = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module General = Lopc.General

type t =
  | All_to_all
  | All_to_all_staggered
  | Client_server of { servers : int }
  | Hotspot of { hot : int; fraction : float }
  | Multi_hop of { hops : int }

let validate ~nodes t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if nodes < 2 then err "patterns need at least two nodes, got %d" nodes
  else
    match t with
    | All_to_all | All_to_all_staggered -> Ok t
    | Client_server { servers } ->
      if servers > 0 && servers < nodes then Ok t
      else err "client-server needs 0 < servers < nodes, got %d of %d" servers nodes
    | Hotspot { hot; fraction } ->
      if hot < 0 || hot >= nodes then err "hot node %d out of range" hot
      else if not (fraction >= 0. && fraction <= 1.) then
        err "hotspot fraction %g outside [0,1]" fraction
      else Ok t
    | Multi_hop { hops } ->
      if hops >= 1 then Ok t else err "multi-hop needs hops >= 1, got %d" hops

let check ~nodes t =
  match validate ~nodes t with
  | Ok t -> t
  | Error reason -> invalid_arg ("Pattern: " ^ reason)

let is_server t c =
  match t with Client_server { servers } -> c < servers | _ -> false

(* Each pattern's classes of interchangeable nodes in closed form,
   numbered by smallest member, with the quotient of its visit matrix. A
   thread at node c visits:
   - all-to-all, staggered: each other node 1/(P−1) times per cycle;
   - multi-hop: each other node hops/(P−1) times;
   - client-server: each of the low [servers] nodes 1/servers times;
   - hotspot: each other node spread = (1−f)/(P−1) times, plus f more
     visits to the hot node (its own thread included).
   [row.(j)] sums one thread's visits over class j, [col.(j)] all of a
   class's threads' visits to one node of class j. A sum of n equal
   ratios is added up term by term ([General.repeated]), as a per-node
   row sums them, not multiplied out: the entries then equal the
   node-order sums bit for bit, so the lumped net is the per-node net's
   quotient exactly and its solve answers to the last bit as that
   quotient's does. The loops are O(P) additions and allocate nothing.
   [Client_server] writes its own net. *)
let to_general ?(protocol_processor = false) (params : Lopc.Params.t) ~w t =
  let nodes = params.p in
  let t = check ~nodes t in
  let uniform v =
    let hops = General.repeated (nodes - 1) v in
    [| { General.members = nodes; first = 0; work = Some w; row = [| hops |]; col = [| hops |] } |]
  in
  let classes =
    match t with
    | All_to_all | All_to_all_staggered -> uniform (1. /. Float.of_int (nodes - 1))
    | Multi_hop { hops } -> uniform (Float.of_int hops /. Float.of_int (nodes - 1))
    (* No extra visits: the hot node is like every other node. *)
    | Hotspot { fraction; _ } when Float.equal fraction 0. -> uniform (1. /. Float.of_int (nodes - 1))
    | Client_server { servers } -> (Lopc.Client_server.net params ~w ~servers).classes
    | Hotspot { hot; fraction } ->
      let spread = (1. -. fraction) /. Float.of_int (nodes - 1) in
      let to_cold = General.repeated (nodes - 2) spread in
      (* The hot node's class comes first only when it is node 0. *)
      let pair ~hot:h ~cold = if hot = 0 then [| h; cold |] else [| cold; h |] in
      pair
        ~hot:
          {
            General.members = 1;
            first = hot;
            work = Some w;
            row = pair ~hot:fraction ~cold:(General.repeated (nodes - 1) spread);
            col = pair ~hot:fraction ~cold:spread;
          }
        ~cold:
          {
            General.members = nodes - 1;
            first = (if hot = 0 then 1 else 0);
            work = Some w;
            row = pair ~hot:(spread +. fraction) ~cold:to_cold;
            col = pair ~hot:(General.repeated (nodes - 1) (spread +. fraction)) ~cold:to_cold;
          }
  in
  { General.params; protocol_processor; classes }

let route_for ~nodes c = function
  | All_to_all -> Spec.uniform_other ~nodes ~origin:c
  | All_to_all_staggered -> Spec.round_robin ~nodes ~origin:c
  | Client_server { servers } -> Spec.uniform_server ~servers
  | Hotspot { hot; fraction } -> Spec.hotspot ~nodes ~origin:c ~hot ~fraction
  | Multi_hop { hops } -> Spec.multi_hop ~nodes ~origin:c ~hops

let to_spec ?(protocol_processor = false) ?(polling = false) ?fault ~nodes ~work
    ~handler ~wire t =
  let t = check ~nodes t in
  {
    Spec.nodes;
    threads =
      Array.init nodes (fun c ->
          if is_server t c then None
          else Some { Spec.work; route = route_for ~nodes c t; window = 1 });
    handler;
    reply_handler = handler;
    wire;
    protocol_processor;
    gap = 0.;
    polling;
    barrier = None;
    topology = None;
    fault;
  }

let description = function
  | All_to_all -> "homogeneous all-to-all (uniform random peers)"
  | All_to_all_staggered -> "all-to-all with round-robin (staggered) destinations"
  | Client_server { servers } -> Printf.sprintf "client-server work-pile (%d servers)" servers
  | Hotspot { hot; fraction } ->
    Printf.sprintf "hotspot (%.0f%% of requests to node %d)" (100. *. fraction) hot
  | Multi_hop { hops } -> Printf.sprintf "multi-hop all-to-all (%d hops)" hops
