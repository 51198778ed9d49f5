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

let repeated n v =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. v
  done;
  !acc

(* Per-node queue lengths given request-handler utilization [a = So·Λk]
   and reply-handler utilization [b = So·Xk], from the shared kernel.

   In a closed network a node can never hold more messages than there are
   threads (each thread has at most one request in flight), so queue
   lengths are clamped to that physical bound; this keeps a class's
   cycle-time map finite where the root search tries a cycle time that
   saturates a node. *)
let node_queues ~beta ~max_queue a b =
  if 1. -. a -. (a *. b) <= 1e-9 then
    (max_queue, Float.min max_queue (Contention.reply_queue ~beta a b max_queue))
  else begin
    let qq, _ = Contention.queues ~beta ~extra:0. a b in
    let qq = Float.max 0. (Float.min qq max_queue) in
    (qq, Float.max 0. (Float.min (Contention.reply_queue ~beta a b qq) max_queue))
  end

(* A solve with two or more thread classes stops once every class's
   cycle time is its own map's value, |Fc(R) − Rc| ≤ [tol]·Rc. At the
   hot node of a P = 128 hotspot rounding holds that residual at about
   2e-14, so 1e-14 is never met there; past P ≈ 8,000 the floor rises
   above 1e-12, so the solve also stops when Newton finds no step that
   lowers the residual and the residual is within its rounding floor.
   [max_sweeps] caps the outer steps, bracketed sweeps and Newton steps
   together. *)
let tol = 1e-12

let max_sweeps = 1_000

(* Newton halves a step that leaves some class below its bound, or does
   not lower the residual, at most this many times before it falls back
   to a bracketed sweep. *)
let max_halvings = 4

let solve_status ?budget t =
  (match validate t with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("General: " ^ reason));
  let { Params.st; so; _ } = t.params in
  let beta = Contention.beta t.params in
  let classes = t.classes in
  let n = Array.length classes in
  let threads = List.filter (fun i -> Option.is_some classes.(i).work) (List.init n Fun.id) in
  let max_queue =
    Float.of_int (List.fold_left (fun acc i -> acc + classes.(i).members) 0 threads)
  in
  (* A node of class [j] at request rate [lambda], its own thread at
     throughput [x]. *)
  let node j ~lambda ~x =
    let a = so *. lambda and b = so *. x in
    let qq, qy = node_queues ~beta ~max_queue a b in
    let rq = so *. (1. +. qq +. qy +. (beta *. (a +. b))) in
    let ry = so *. (1. +. qq +. (beta *. a)) in
    let rw =
      match classes.(j).work with
      | None -> Float.nan
      | Some w -> if t.protocol_processor then w else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a)
    in
    { rq; ry; rw; qq; qy; uq = a; uy = b }
  in
  (* Class [c]'s cycle time from its own node and the request residence
     [rq j] at each class it visits: [nan] for a server, as its [rw]. *)
  let cycle_time c ~own ~rq =
    let row = classes.(c).row and acc = ref 0. in
    for j = 0 to n - 1 do
      if row.(j) > 0. then acc := !acc +. (row.(j) *. (st +. rq j))
    done;
    own.rw +. !acc +. st +. own.ry
  in
  (* Contention-free cycle time: the work, a handler and a wire trip per
     hop, and the reply. [x.(i)] is class i's throughput ([0.] for
     servers). *)
  let bound c =
    let hops = Array.fold_left ( +. ) 0. classes.(c).row in
    Option.fold ~none:Float.nan
      ~some:(fun w -> w +. (hops *. (st +. so)) +. st +. so)
      classes.(c).work
  in
  let x = Array.make n 0. in
  List.iter (fun c -> x.(c) <- 1. /. bound c) threads;
  (* The request rate [Σ_i col_i(j)·xs.(i)] at one node of class [j]
     from every class but [skip]. *)
  let rate_without xs skip j =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      if i <> skip then acc := !acc +. (classes.(i).col.(j) *. xs.(i))
    done;
    !acc
  in
  (* Class [c]'s cycle time R = F(R), the others held; [x.(c)] then holds
     the answer. An evaluation adds only c's share to the other classes'
     rates, O(classes). The search runs in units of lb·2⁻⁴⁰: the
     kernel's absolute tolerance then sits below rounding at any time
     scale, and scaling every time by a power of two leaves the search
     bit for bit the same. *)
  let solve_class c =
    let col = classes.(c).col and lb = bound c in
    let base = Array.init n (rate_without x c) in
    let unit = Float.ldexp lb (-40) in
    let f v =
      let xc = 1. /. (v *. unit) in
      let at j = node j ~lambda:(base.(j) +. (col.(j) *. xc)) ~x:(if j = c then xc else x.(j)) in
      cycle_time c ~own:(at c) ~rq:(fun j -> (at j).rq) /. unit
    in
    let v, status = Fixed_point.solve_above_status ?budget ~f (lb /. unit) in
    x.(c) <- 1. /. (v *. unit);
    status
  in
  let threads = Array.of_list threads in
  let m = Array.length threads in
  (* [evals] counts cycle-time evaluations, one unit of fuel each. *)
  let evals = ref 0 in
  (* One bracketed solve per thread class in turn, each against the
     others' latest throughputs: [None], or the first solve's status
     that did not converge, its evaluations counted. *)
  let sweep () =
    Array.fold_left
      (fun (stop : Fixed_point.status option) c ->
        match stop with
        | Some _ -> stop
        | None -> (
          match solve_class c with
          | Fixed_point.Converged { iters } ->
            evals := !evals + iters;
            None
          | Fixed_point.Diverged { iters; residual } ->
            Some (Fixed_point.Diverged { iters = !evals + iters; residual })
          | Fixed_point.Exhausted { iters; reason } ->
            Some (Fixed_point.Exhausted { iters = !evals + iters; reason })
          | Fixed_point.Saturated _ as status -> Some status))
      None threads
  in
  (* The per-node equations' residual, max_c |Fc(R) − Rc| / Rc, at
     cycle times [r] (one entry per thread class) with [f] = F(r): [nan]
     when some F is not finite, as [Float.max] keeps a [nan]. *)
  let residual r f =
    let worst = ref 0. in
    Array.iteri
      (fun k rk ->
        worst := Float.max !worst (Float.abs (f.(k) -. rk) /. rk))
      r;
    !worst
  in
  let bounds = Array.map bound threads in
  let cycle_times () = Array.map (fun c -> 1. /. x.(c)) threads in
  let set_cycle_times r = Array.iteri (fun k c -> x.(c) <- 1. /. r.(k)) threads in
  (* Newton steps on G(R) = F(R) − R from where one sweep left the
     throughputs, each safeguarded by a sweep. The budget's stop is
     caught here, where every evaluation that consumes it is made. *)
  let solve_jointly () =
    try
      (* Every thread class's map at once: one pass over the request
         rates, O(classes²), then one evaluation and one unit of fuel
         per class. *)
      let joint r =
        let xs = Array.make n 0. in
        Array.iteri (fun k c -> xs.(c) <- 1. /. r.(k)) threads;
        let at = Array.init n (fun j -> node j ~lambda:(rate_without xs (-1) j) ~x:xs.(j)) in
        Array.map
          (fun c ->
            Lopc_robust.Budget.check_exn budget;
            incr evals;
            cycle_time c ~own:at.(c) ~rq:(fun j -> at.(j).rq))
          threads
      in
      (* One Newton step from [r]: the Jacobian by forward differences
         (one joint evaluation per class), then the step halved until
         every Rc stays at or above its bound and the residual falls.
         When no such step is found, [Error floor]: the residual's
         first-order rounding floor read off the same differences,
         16·ε·max_c (|Fc| + Σ_k |∂Fc/∂Rk|·Rk) / Rc. *)
      let newton r f ~now =
        let jacobian = Array.make_matrix m m 0. in
        let sensitivity = Array.map Float.abs f in
        for k = 0 to m - 1 do
          let h = Float.ldexp r.(k) (-26) in
          let fh = joint (Array.mapi (fun i ri -> if i = k then ri +. h else ri) r) in
          for c = 0 to m - 1 do
            let d = (fh.(c) -. f.(c)) /. h in
            sensitivity.(c) <- sensitivity.(c) +. (Float.abs d *. r.(k));
            jacobian.(c).(k) <- (d -. if c = k then 1. else 0.)
          done
        done;
        let floor () =
          16. *. epsilon_float *. Array.fold_left Float.max 0. (Array.map2 ( /. ) sensitivity r)
        in
        match Lopc_numerics.Linear.solve jacobian (Array.mapi (fun k fk -> r.(k) -. fk) f) with
        | exception Lopc_numerics.Linear.Singular -> Error (floor ())
        | step ->
          let rec halve halvings scale =
            let next = Array.mapi (fun k rk -> rk +. (scale *. step.(k))) r in
            let again () =
              if halvings = max_halvings then Error (floor ())
              else halve (halvings + 1) (scale /. 2.)
            in
            if not (Array.for_all2 ( <= ) bounds next) then again ()
            else
              let fn = joint next in
              if residual next fn < now then Ok (next, fn) else again ()
          in
          halve 0 1.
      in
      let rec steps ~taken r f =
        let now = residual r f in
        if now <= tol then begin
          set_cycle_times r;
          Fixed_point.Converged { iters = !evals }
        end
        else if taken = max_sweeps then Fixed_point.Diverged { iters = !evals; residual = now }
        else
          match newton r f ~now with
          | Ok (r, f) -> steps ~taken:(taken + 1) r f
          | Error floor when now <= floor ->
            set_cycle_times r;
            Fixed_point.Converged { iters = !evals }
          | Error _ -> (
            set_cycle_times r;
            match sweep () with
            | Some status -> status
            | None ->
              let r = cycle_times () in
              steps ~taken:(taken + 1) r (joint r))
      in
      let r = cycle_times () in
      steps ~taken:1 r (joint r)
    with Lopc_robust.Budget.Stop reason -> Fixed_point.Exhausted { iters = !evals; reason }
  in
  let status =
    match sweep () with
    | Some status -> status
    | None when m = 1 -> Fixed_point.Converged { iters = !evals }
    | None -> solve_jointly ()
  in
  match status with
  | Fixed_point.Converged _ ->
    let per_class = Array.init n (fun j -> node j ~lambda:(rate_without x (-1) j) ~x:x.(j)) in
    let rq j = per_class.(j).rq in
    ( Some
        {
          cycle_times = Array.init n (fun c -> cycle_time c ~own:per_class.(c) ~rq);
          throughputs = x;
          node_solutions = per_class;
          system_throughput =
            Array.fold_left ( +. ) 0.
              (Array.mapi (fun i c -> Float.of_int c.members *. x.(i)) classes);
        },
      status )
  | status -> (None, status)
