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

(* Visit matrix row for a thread at [c] under each pattern. *)
let visit_row ~nodes c = function
  | All_to_all | All_to_all_staggered ->
    let v = 1. /. Float.of_int (nodes - 1) in
    Array.init nodes (fun k -> if k = c then 0. else v)
  | Client_server { servers } ->
    let v = 1. /. Float.of_int servers in
    Array.init nodes (fun k -> if k < servers then v else 0.)
  | Hotspot { hot; fraction } ->
    let spread = (1. -. fraction) /. Float.of_int (nodes - 1) in
    Array.init nodes (fun k ->
        let base = if k = c then 0. else spread in
        if k = hot then base +. fraction else base)
  | Multi_hop { hops } ->
    let v = Float.of_int hops /. Float.of_int (nodes - 1) in
    Array.init nodes (fun k -> if k = c then 0. else v)

let is_server t c =
  match t with Client_server { servers } -> c < servers | _ -> false

let to_general ?(protocol_processor = false) (params : Lopc.Params.t) ~w t =
  let nodes = params.p in
  let t = check ~nodes t in
  {
    General.params;
    protocol_processor;
    nodes =
      Array.init nodes (fun c ->
          if is_server t c then { General.work = None; visits = Array.make nodes 0. }
          else { General.work = Some w; visits = visit_row ~nodes c t });
  }

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
