module Fixed_point = Lopc_numerics.Fixed_point

type node_class = {
  members : int;
  first : int;
  work : float option;
  row : float array;
  col : float array;
}

type t = {
  params : Params.t;
  classes : node_class array;
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

(* The first defect of class [i] on its own, in the order the checks are
   listed. [previous] is the smallest member of class [i - 1]. *)
let class_problem ~p ~n ~previous i c =
  let ok v = v >= 0. && Float.is_finite v in
  let err fmt = Printf.ksprintf Option.some fmt in
  let in_order = if i = 0 then c.first = 0 else c.first > previous && c.first < p in
  if c.members < 1 then err "class %d has %d members" i c.members
  else if not in_order then
    err "class %d's smallest member %d is out of order" i c.first
  else if Array.length c.row <> n || Array.length c.col <> n then
    err "class %d visit vectors have lengths %d and %d, expected %d" i (Array.length c.row)
      (Array.length c.col) n
  else if not (Array.for_all ok c.row && Array.for_all ok c.col) then
    err "class %d has a negative or non-finite visit ratio" i
  else
    match c.work with
    | Some w when not (ok w) -> err "class %d has invalid work" i
    | Some _ when Array.fold_left ( +. ) 0. c.row <= 0. -> err "thread class %d never sends a request" i
    | Some _ | None -> None

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let p = t.params.Params.p and n = Array.length t.classes in
  let indices = Seq.init n Fun.id in
  (* Thread class i's visits to class j, counted from its row and from
     its column, differ by more than rounding. A server's row and column
     are never read. *)
  let disagree (i, j) =
    let by_row = Float.of_int t.classes.(i).members *. t.classes.(i).row.(j)
    and by_col = Float.of_int t.classes.(j).members *. t.classes.(i).col.(j) in
    Option.is_some t.classes.(i).work
    && Float.abs (by_row -. by_col) > 1e-9 *. Float.max by_row by_col
  in
  match Params.validate t.params with
  | Error reason -> Error reason
  | Ok _ -> (
    let problem =
      Seq.find_map
        (fun i ->
          let previous = if i = 0 then -1 else t.classes.(i - 1).first in
          class_problem ~p ~n ~previous i t.classes.(i))
        indices
    in
    match problem with
    | Some reason -> Error reason
    | None -> (
      let nodes = Array.fold_left (fun acc c -> acc + c.members) 0 t.classes in
      if nodes <> p then err "params.p = %d but the classes hold %d nodes" p nodes
      else
        match Seq.find disagree (Seq.concat_map (fun i -> Seq.map (fun j -> (i, j)) indices) indices) with
        | Some (i, j) -> err "class %d's row and column visits to class %d disagree" i j
        | None ->
          if Array.exists (fun c -> Option.is_some c.work) t.classes then Ok t
          else Error "no node runs a thread"))

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
  let { Params.st; so; _ } = t.params in
  let beta = Contention.beta t.params in
  let classes = t.classes in
  let n = Array.length classes in
  let thread_count =
    Array.fold_left
      (fun acc c -> if Option.is_none c.work then acc else acc + c.members)
      0 classes
  in
  let max_queue = Float.of_int thread_count in
  (* Every vector below holds one entry per class. The sums run in
     [for] loops: a float ref captured by a closure is boxed on every
     update. *)
  let analyze x =
    Array.init n (fun j ->
        let lambda = ref 0. in
        for i = 0 to n - 1 do
          lambda := !lambda +. (classes.(i).col.(j) *. x.(i))
        done;
        let a = so *. !lambda in
        let b = so *. x.(j) in
        let qq, qy = node_queues ~beta ~max_queue a b in
        let rq = so *. (1. +. qq +. qy +. (beta *. (a +. b))) in
        let ry = so *. (1. +. qq +. (beta *. a)) in
        let rw =
          match classes.(j).work with
          | None -> Float.nan
          | Some w ->
            if t.protocol_processor then w
            else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a)
        in
        { rq; ry; rw; qq; qy; uq = a; uy = b })
  in
  let cycle_time per_class i =
    match classes.(i).work with
    | None -> Float.nan
    | Some _ ->
      let row = classes.(i).row and acc = ref 0. in
      for j = 0 to n - 1 do
        let v = row.(j) in
        if v > 0. then acc := !acc +. (v *. (st +. per_class.(j).rq))
      done;
      per_class.(i).rw +. !acc +. st +. per_class.(i).ry
  in
  let step x =
    let per_class = analyze x in
    Array.init n (fun i ->
        match classes.(i).work with None -> 0. | Some _ -> 1. /. cycle_time per_class i)
  in
  let x0 =
    Array.map
      (fun c ->
        match c.work with
        | None -> 0.
        | Some w ->
          (* Contention-free starting point. *)
          let hops = Array.fold_left ( +. ) 0. c.row in
          1. /. (w +. (hops *. (st +. so)) +. st +. so))
      classes
  in
  (* The node with the most loaded request handlers at an iterate: the
     saturation diagnosis below names it. Classes are numbered by smallest
     member, so the first class at the top names the node a per-node scan
     would. *)
  let hottest per_class =
    let best = ref None in
    Array.iteri
      (fun i (ns : node_solution) ->
        match !best with
        | Some (_, u) when u >= ns.uq -> ()
        | _ -> best := Some (classes.(i).first, ns.uq))
      per_class;
    !best
  in
  let outcome, status =
    Fixed_point.solve_vector_status ?budget ~damping:0.1 ~tol ~max_iter ~f:step x0
  in
  let x = outcome.Fixed_point.value in
  match status with
  | Fixed_point.Converged _ ->
    let per_class = analyze x in
    let total = ref 0. in
    Array.iteri (fun i c -> total := !total +. (Float.of_int c.members *. x.(i))) classes;
    ( Some
        {
          cycle_times = Array.init n (cycle_time per_class);
          throughputs = x;
          node_solutions = per_class;
          system_throughput = !total;
        },
      status )
  (* A budget stop is the caller's allowance ending, not a property of the
     iterate — report it as-is rather than re-diagnosing saturation. *)
  | Fixed_point.Exhausted _ -> (None, status)
  | _ ->
    (* Diagnose the stall from the last iterate: a node whose request
       handlers are driven to (or past) full utilization has no finite
       fixed point — report it as saturation with the culprit node. *)
    let per_class = analyze x in
    (match hottest per_class with
    | Some (station, utilization) when utilization >= 1. -. 1e-9 ->
      (None, Fixed_point.Saturated { station; utilization })
    | Some _ | None -> (None, status))

let solve ?tol ?max_iter t =
  match solve_status ?tol ?max_iter t with
  | Some s, _ -> s
  | None, status ->
    raise (Fixed_point.Diverged ("General: " ^ Fixed_point.status_to_string status))
