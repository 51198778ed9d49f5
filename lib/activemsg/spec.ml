module Topology = Lopc_topology.Topology

module Distribution = Lopc_dist.Distribution
module Rng = Lopc_prng.Rng

type route = Rng.t -> int list

type thread = { work : Distribution.t; route : route; window : int }

type t = {
  nodes : int;
  threads : thread option array;
  handler : Distribution.t;
  reply_handler : Distribution.t;
  wire : Distribution.t;
  protocol_processor : bool;
  gap : float;
  polling : bool;
  initial_delay : (int -> float) option;
  barrier : barrier option;
  topology : Topology.t option;
  fault : Fault.t option;
}

and barrier = { interval : int; cost : float }

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.nodes <= 0 then err "machine needs at least one node, got %d" t.nodes
  else if t.polling && t.protocol_processor then
    err "polling and protocol_processor are mutually exclusive"
  else if t.gap < 0. || not (Float.is_finite t.gap) then
    err "gap must be finite and >= 0, got %g" t.gap
  else if
    (match t.barrier with
    | None -> false
    | Some b -> b.interval < 1 || b.cost < 0. || not (Float.is_finite b.cost))
  then err "barrier needs interval >= 1 and finite cost >= 0"
  else if
    (match t.topology with
    | None -> false
    | Some topo -> topo.Topology.rows * topo.Topology.cols <> t.nodes)
  then err "topology size does not match the node count"
  else if Option.is_some t.fault && Option.is_some t.topology then
    err "faults require the contention-free interconnect (topology = None)"
  else if Array.length t.threads <> t.nodes then
    err "threads array has %d entries for %d nodes" (Array.length t.threads) t.nodes
  else begin
    let fault_problem =
      match t.fault with
      | None -> None
      | Some f -> (
          match Fault.validate ~nodes:t.nodes f with
          | Error reason -> Some reason
          | Ok _ ->
              if
                Array.exists
                  (function Some th -> th.window > 1 | None -> false)
                  t.threads
              then Some "faults require blocking threads (window = 1)"
              else None)
    in
    let dist_problem =
      List.find_map
        (fun (name, d) ->
          match Distribution.validate d with
          | Ok _ -> None
          | Error reason -> Some (name ^ ": " ^ reason))
        [ ("handler", t.handler); ("reply_handler", t.reply_handler); ("wire", t.wire) ]
    in
    let thread_problem =
      Array.to_list t.threads
      |> List.find_map (function
           | None -> None
           | Some th ->
             if th.window < 1 then Some "thread window must be at least 1"
             else if th.window > 1 && Option.is_some t.barrier then
               Some "barriers require blocking threads (window = 1)"
             else (
               match Distribution.validate th.work with
               | Ok _ -> None
               | Error reason -> Some ("thread work: " ^ reason)))
    in
    match (fault_problem, dist_problem, thread_problem) with
    | Some reason, _, _ | None, Some reason, _ | None, None, Some reason ->
        Error reason
    | None, None, None -> Ok t
  end

let uniform_other ~nodes ~origin =
  if nodes < 2 then invalid_arg "Spec.uniform_other: need at least two nodes";
  fun rng ->
    let raw = Rng.int_below rng (nodes - 1) in
    [ (if raw >= origin then raw + 1 else raw) ]

let round_robin ~nodes ~origin =
  if nodes < 2 then invalid_arg "Spec.round_robin: need at least two nodes";
  let offset = ref 0 in
  fun _rng ->
    offset := (!offset mod (nodes - 1)) + 1;
    [ (origin + !offset) mod nodes ]

let uniform_server ~servers =
  if servers <= 0 then invalid_arg "Spec.uniform_server: need at least one server";
  fun rng -> [ Rng.int_below rng servers ]

let hotspot ~nodes ~origin ~hot ~fraction =
  if hot < 0 || hot >= nodes then invalid_arg "Spec.hotspot: hot node out of range";
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg "Spec.hotspot: fraction outside [0,1]";
  let fallback = uniform_other ~nodes ~origin in
  fun rng -> if Rng.bernoulli rng fraction then [ hot ] else fallback rng

let multi_hop ~nodes ~origin ~hops =
  if hops < 1 then invalid_arg "Spec.multi_hop: need at least one hop";
  if nodes < 2 then invalid_arg "Spec.multi_hop: need at least two nodes";
  let pick = uniform_other ~nodes ~origin in
  fun rng -> List.concat_map (fun _ -> pick rng) (List.init hops Fun.id)

let check spec =
  match validate spec with Ok s -> s | Error reason -> invalid_arg ("Spec: " ^ reason)

let all_to_all ?(protocol_processor = false) ?(polling = false) ?(gap = 0.)
    ?(staggered = false) ?(window = 1) ?fault ~nodes ~work ~handler ~wire () =
  let make_route origin =
    if staggered then round_robin ~nodes ~origin else uniform_other ~nodes ~origin
  in
  check
    {
      nodes;
      threads = Array.init nodes (fun i -> Some { work; route = make_route i; window });
      handler;
      reply_handler = handler;
      wire;
      protocol_processor;
      gap;
      polling;
      initial_delay = None;
      barrier = None;
      topology = None;
      fault;
    }
