module Fixed_point = Lopc_numerics.Fixed_point

type node_spec = { work : float option; visits : float array }

type t = {
  params : Params.t;
  nodes : node_spec array;
  protocol_processor : bool;
}

type node_solution = {
  rq : float;
  ry : float;
  rw : float;
  qq : float;
  qy : float;
  uq : float;
  uy : float;
}

type solution = {
  cycle_times : float array;
  throughputs : float array;
  node_solutions : node_solution array;
  system_throughput : float;
}

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let p = Array.length t.nodes in
  match Params.validate t.params with
  | Error reason -> Error reason
  | Ok _ ->
    if t.params.Params.p <> p then
      err "params.p = %d but %d nodes specified" t.params.Params.p p
    else begin
      let problem = ref None in
      let has_thread = ref false in
      Array.iteri
        (fun c spec ->
          if Array.length spec.visits <> p then
            problem := Some (Printf.sprintf "node %d visit vector has length %d, expected %d" c (Array.length spec.visits) p);
          Array.iter
            (fun v ->
              if v < 0. || not (Float.is_finite v) then
                problem := Some "negative or non-finite visit ratio")
            spec.visits;
          match spec.work with
          | None -> ()
          | Some w ->
            has_thread := true;
            if w < 0. || not (Float.is_finite w) then
              problem := Some (Printf.sprintf "node %d has invalid work" c);
            let hops = Array.fold_left ( +. ) 0. spec.visits in
            if hops <= 0. then
              problem := Some (Printf.sprintf "thread node %d never sends a request" c))
        t.nodes;
      if not !has_thread then problem := Some "no node runs a thread";
      match !problem with Some reason -> Error reason | None -> Ok t
    end

(* Per-node queue lengths given request-handler utilization [a = So·Λk]
   and reply-handler utilization [b = So·Xk], from the shared kernel.

   In a closed network a node can never hold more messages than there are
   threads (each thread has at most one request in flight), so queue
   lengths are clamped to that physical bound; this keeps the outer
   fixed-point iteration stable when an intermediate iterate saturates a
   node. *)
let node_queues ~beta ~max_queue a b =
  if 1. -. a -. (a *. b) <= 1e-9 then
    (max_queue, Float.min max_queue (Contention.reply_queue ~beta a b max_queue))
  else begin
    let qq, _ = Contention.queues ~beta ~extra:0. a b in
    let qq = Float.max 0. (Float.min qq max_queue) in
    (qq, Float.max 0. (Float.min (Contention.reply_queue ~beta a b qq) max_queue))
  end

let solve_status ?budget ?(tol = 1e-12) ?(max_iter = 200_000) t =
  (match validate t with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("General: " ^ reason));
  let p = Array.length t.nodes in
  let { Params.st; so; _ } = t.params in
  let beta = Contention.beta t.params in
  let thread_count =
    Array.fold_left
      (fun acc spec -> if Option.is_none spec.work then acc else acc + 1)
      0 t.nodes
  in
  let max_queue = Float.of_int thread_count in
  let hops =
    Array.map
      (fun spec -> Array.fold_left ( +. ) 0. spec.visits)
      t.nodes
  in
  (* Full per-node analysis for a given throughput vector. *)
  let analyze x =
    let lambda =
      Array.init p (fun k ->
          let acc = ref 0. in
          Array.iteri (fun c spec -> acc := !acc +. (spec.visits.(k) *. x.(c))) t.nodes;
          !acc)
    in
    Array.init p (fun k ->
        let a = so *. lambda.(k) in
        let b = so *. x.(k) in
        let qq, qy = node_queues ~beta ~max_queue a b in
        let rq = so *. (1. +. qq +. qy +. (beta *. (a +. b))) in
        let ry = so *. (1. +. qq +. (beta *. a)) in
        let rw =
          match t.nodes.(k).work with
          | None -> Float.nan
          | Some w ->
            if t.protocol_processor then w
            else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a)
        in
        { rq; ry; rw; qq; qy; uq = a; uy = b })
  in
  let cycle_time per_node c =
    match t.nodes.(c).work with
    | None -> Float.nan
    | Some _ ->
      let spec = t.nodes.(c) in
      let acc = ref 0. in
      Array.iteri
        (fun k v -> if v > 0. then acc := !acc +. (v *. (st +. per_node.(k).rq)))
        spec.visits;
      per_node.(c).rw +. !acc +. st +. per_node.(c).ry
  in
  let step x =
    let per_node = analyze x in
    Array.init p (fun c ->
        match t.nodes.(c).work with
        | None -> 0.
        | Some _ -> 1. /. cycle_time per_node c)
  in
  let x0 =
    Array.init p (fun c ->
        match t.nodes.(c).work with
        | None -> 0.
        | Some w ->
          (* Contention-free starting point. *)
          1. /. (w +. (hops.(c) *. (st +. so)) +. st +. so))
  in
  (* The node with the most loaded request handlers at an iterate: the
     saturation diagnosis below names it. *)
  let hottest per_node =
    let best = ref None in
    Array.iteri
      (fun k (ns : node_solution) ->
        match !best with
        | Some (_, u) when u >= ns.uq -> ()
        | _ -> best := Some (k, ns.uq))
      per_node;
    !best
  in
  let outcome, status =
    Fixed_point.solve_vector_status ?budget ~damping:0.1 ~tol ~max_iter ~f:step x0
  in
  let x = outcome.Fixed_point.value in
  match status with
  | Fixed_point.Converged _ ->
    let per_node = analyze x in
    let cycle_times = Array.init p (fun c -> cycle_time per_node c) in
    ( Some
        {
          cycle_times;
          throughputs = x;
          node_solutions = per_node;
          system_throughput = Array.fold_left ( +. ) 0. x;
        },
      status )
  (* A budget stop is the caller's allowance ending, not a property of the
     iterate — report it as-is rather than re-diagnosing saturation. *)
  | Fixed_point.Exhausted _ -> (None, status)
  | _ ->
    (* Diagnose the stall from the last iterate: a node whose request
       handlers are driven to (or past) full utilization has no finite
       fixed point — report it as saturation with the culprit node. *)
    let per_node = analyze x in
    (match hottest per_node with
    | Some (station, utilization) when utilization >= 1. -. 1e-9 ->
      (None, Fixed_point.Saturated { station; utilization })
    | Some _ | None -> (None, status))

let solve ?tol ?max_iter t =
  match solve_status ?tol ?max_iter t with
  | Some s, _ -> s
  | None, status ->
    raise (Fixed_point.Diverged ("General: " ^ Fixed_point.status_to_string status))
