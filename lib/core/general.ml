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

(* The first defect of node [c], in the order the checks are listed. The
   row is scanned with loops: the polymorphic [Array] iterators box every
   element of a float array. *)
let node_problem p c spec =
  let row = spec.visits in
  let bad = ref false and hops = ref 0. in
  for k = 0 to Array.length row - 1 do
    let v = row.(k) in
    if v < 0. || not (Float.is_finite v) then bad := true;
    hops := !hops +. v
  done;
  if Array.length row <> p then
    Some (Printf.sprintf "node %d visit vector has length %d, expected %d" c (Array.length row) p)
  else if !bad then Some "negative or non-finite visit ratio"
  else
    match spec.work with
    | None -> None
    | Some w when w < 0. || not (Float.is_finite w) ->
      Some (Printf.sprintf "node %d has invalid work" c)
    | Some _ when !hops <= 0. -> Some (Printf.sprintf "thread node %d never sends a request" c)
    | Some _ -> None

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let p = Array.length t.nodes in
  match Params.validate t.params with
  | Error reason -> Error reason
  | Ok _ ->
    if t.params.Params.p <> p then
      err "params.p = %d but %d nodes specified" t.params.Params.p p
    else begin
      (* The first defect in node order; a net without threads only after
         every node passed. *)
      match Seq.find_map (fun (c, spec) -> node_problem p c spec) (Array.to_seqi t.nodes) with
      | Some reason -> Error reason
      | None ->
        if Array.exists (fun spec -> Option.is_some spec.work) t.nodes then Ok t
        else Error "no node runs a thread"
    end

(* --- classes of interchangeable nodes ---------------------------------------- *)

(* A partition of the nodes into classes, numbered by smallest member, with
   the quotient visit matrices: [rows.(i).(j)] is one class-i thread's
   visits to all of class j, [cols.(i).(j)] all class-i threads' visits to
   one class-j node. *)
type lumping = {
  class_of : int array;
  first : int array;
  rows : float array array;
  cols : float array array;
}

(* Classes of equal keys, numbered in order of first occurrence. *)
let number keys =
  let ids = Hashtbl.create 16 in
  let class_of =
    Array.init (Array.length keys) (fun k ->
        match Hashtbl.find_opt ids keys.(k) with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids keys.(k) i;
          i)
  in
  (class_of, Hashtbl.length ids)

(* [into.(c).(j)]: node c's visits to all of class j; [from.(i).(k)]: all
   class-i nodes' visits to node k. Both sum in node order. A pure
   server's row is ignored by the model, so it adds nothing. *)
let class_sums t (class_of, classes) =
  let p = Array.length class_of in
  let into = Array.make_matrix p classes 0. and from = Array.make_matrix classes p 0. in
  Array.iteri
    (fun c spec ->
      if Option.is_some spec.work then begin
        let row = spec.visits and into_c = into.(c) and from_i = from.(class_of.(c)) in
        for k = 0 to p - 1 do
          let v = row.(k) and j = class_of.(k) in
          into_c.(j) <- into_c.(j) +. v;
          from_i.(k) <- from_i.(k) +. v
        done
      end)
    t.nodes;
  (into, from)

(* The coarsest equitable partition, by colour refinement from the work
   each node runs: a round splits a class whose members differ, bit for
   bit, in a row sum into some class or a column sum from some class.
   Every round but the last adds a class, so P rounds always suffice. *)
let lump t =
  let p = Array.length t.nodes in
  let bits = Array.map Int64.bits_of_float in
  let rec refine round ((class_of, classes) as partition) =
    let into, from = class_sums t partition in
    let column k = Array.map (fun from_i -> from_i.(k)) from in
    let finer = number (Array.init p (fun k -> (class_of.(k), bits into.(k), bits (column k)))) in
    if snd finer = classes || round >= p then (partition, into, from)
    else refine (round + 1) finer
  in
  let (class_of, classes), into, from =
    refine 1 (number (Array.map (fun spec -> Option.map Int64.bits_of_float spec.work) t.nodes))
  in
  let first = Array.make classes 0 in
  for c = p - 1 downto 0 do
    first.(class_of.(c)) <- c
  done;
  {
    class_of;
    first;
    rows = Array.map (fun c -> into.(c)) first;
    cols = Array.map (fun from_i -> Array.map (fun k -> from_i.(k)) first) from;
  }

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
  let thread_count =
    Array.fold_left
      (fun acc spec -> if Option.is_none spec.work then acc else acc + 1)
      0 t.nodes
  in
  let max_queue = Float.of_int thread_count in
  (* Every vector below holds one entry per class. *)
  let { class_of; first; rows; cols } = lump t in
  let n = Array.length first in
  let work i = t.nodes.(first.(i)).work in
  let analyze x =
    Array.init n (fun j ->
        let lambda = ref 0. in
        Array.iteri (fun i col -> lambda := !lambda +. (col.(j) *. x.(i))) cols;
        let a = so *. !lambda in
        let b = so *. x.(j) in
        let qq, qy = node_queues ~beta ~max_queue a b in
        let rq = so *. (1. +. qq +. qy +. (beta *. (a +. b))) in
        let ry = so *. (1. +. qq +. (beta *. a)) in
        let rw =
          match work j with
          | None -> Float.nan
          | Some w ->
            if t.protocol_processor then w
            else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a)
        in
        { rq; ry; rw; qq; qy; uq = a; uy = b })
  in
  let cycle_time per_class i =
    match work i with
    | None -> Float.nan
    | Some _ ->
      let acc = ref 0. in
      Array.iteri
        (fun j v -> if v > 0. then acc := !acc +. (v *. (st +. per_class.(j).rq)))
        rows.(i);
      per_class.(i).rw +. !acc +. st +. per_class.(i).ry
  in
  let step x =
    let per_class = analyze x in
    Array.init n (fun i ->
        match work i with None -> 0. | Some _ -> 1. /. cycle_time per_class i)
  in
  let x0 =
    Array.map
      (fun c ->
        match t.nodes.(c).work with
        | None -> 0.
        | Some w ->
          (* Contention-free starting point. *)
          let hops = Array.fold_left ( +. ) 0. t.nodes.(c).visits in
          1. /. (w +. (hops *. (st +. so)) +. st +. so))
      first
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
        | _ -> best := Some (first.(i), ns.uq))
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
    let per_node per_class = Array.map (fun i -> per_class.(i)) class_of in
    let throughputs = per_node x in
    ( Some
        {
          cycle_times = per_node (Array.init n (cycle_time per_class));
          throughputs;
          node_solutions = per_node per_class;
          system_throughput = Array.fold_left ( +. ) 0. throughputs;
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
