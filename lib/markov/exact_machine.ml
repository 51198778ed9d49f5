type result = {
  states : int;
  cycle_time : float;
  throughput : float;
  qq : float;
  qy : float;
  uq : float;
  uy : float;
}

(* State encoding. Node [i] has one outstanding compute/request cycle, in
   one of [2p + 3] phase codes:

     0            working
     1 + d        request in flight toward node d
     1 + p + d    request in node d's FIFO (d <> i)
     2p + 1       reply in flight home
     2p + 2       reply in the node's own FIFO

   A node owns at most one FIFO item (its request in the destination's
   FIFO, or its reply in its own), so each FIFO is fully described by the
   positions of the items in it. Node [i]'s digit is [code * p + pos],
   with [pos] its item's place in that FIFO (0 when it has none), and the
   state is the base [(2p + 3) p] number with node 0 as the least
   significant digit. *)

let radix p = ((2 * p) + 3) * p

(* Whether every key of a [p]-node machine, up to [radix p ^ p - 1], fits
   in a non-negative [int]. Only called for small [p]. *)
let packable p =
  let b = radix p in
  let rec go acc k = k = 0 || (acc <= max_int / b && go (acc * b) (k - 1)) in
  go 1 p

(* Largest machine whose states pack into an [int]: 8 nodes on 64-bit. *)
let max_nodes =
  let rec go p = if packable (p + 1) then go (p + 1) else p in
  go 2

type machine = {
  p : int;
  base : int;                 (* radix p *)
  weight : int array;         (* weight.(i) = base^i *)
  rep_wire : int;             (* phase code 2p + 1 *)
  rep_home : int;             (* phase code 2p + 2 *)
  code_of : int array;        (* code_of.(digit) = digit / p *)
  (* Scratch filled by [decode]. *)
  code : int array;           (* phase code per node *)
  qlen : int array;           (* items per FIFO *)
  qweight : int array;        (* sum of the weights of the items' owners *)
  head : int array;           (* owner of the item at position 0 *)
}

let machine p =
  let base = radix p in
  let weight = Array.make p 1 in
  for i = 1 to p - 1 do
    weight.(i) <- weight.(i - 1) * base
  done;
  {
    p;
    base;
    weight;
    rep_wire = (2 * p) + 1;
    rep_home = (2 * p) + 2;
    code_of = Array.init base (fun digit -> digit / p);
    code = Array.make p 0;
    qlen = Array.make p 0;
    qweight = Array.make p 0;
    head = Array.make p 0;
  }

(* One integer division per node: the hot loops of both exploration and
   aggregation run through here. *)
let decode m key =
  let p = m.p in
  for k = 0 to p - 1 do
    m.qlen.(k) <- 0;
    m.qweight.(k) <- 0
  done;
  let rest = ref key in
  for i = 0 to p - 1 do
    let higher = !rest / m.base in
    let digit = !rest - (higher * m.base) in
    rest := higher;
    let c = m.code_of.(digit) in
    m.code.(i) <- c;
    let q = if c > p && c < m.rep_wire then c - 1 - p else if c = m.rep_home then i else -1 in
    if q >= 0 then begin
      m.qlen.(q) <- m.qlen.(q) + 1;
      m.qweight.(q) <- m.qweight.(q) + m.weight.(i);
      if digit = c * p then m.head.(q) <- i
    end
  done

(* Validated machine: the chain's initial state and transition function,
   or [None] when its states do not pack into an [int]. *)
let model ~p ~w ~so ~st =
  if p < 2 then invalid_arg "Exact_machine: need at least two nodes";
  List.iter
    (fun (name, v) ->
      if v <= 0. || not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "Exact_machine: %s must be strictly positive" name))
    [ ("w", w); ("so", so); ("st", st) ];
  if p > max_nodes then None
  else begin
    let m = machine p in
    let mu_req = 1. /. w /. Float.of_int (p - 1) and mu_so = 1. /. so and mu_st = 1. /. st in
    (* Successors are consed in generation order, so the list comes out
       reversed; exploration order, and hence every solved float, depends
       on this order. *)
    let transitions key =
      decode m key;
      let moves = ref [] in
      let add delta rate = moves := (key + delta, rate) :: !moves in
      for i = 0 to p - 1 do
        let c = m.code.(i) and wi = m.weight.(i) in
        if c = 0 then begin
          (* The thread runs only while its own FIFO is empty
             (preempt-resume is free under memoryless work). On completion
             it sends to a uniformly random peer. *)
          if m.qlen.(i) = 0 then
            for d = 0 to p - 1 do
              if d <> i then add ((1 + d) * p * wi) mu_req
            done
        end
        else if c <= p then begin
          (* Request lands at the tail of its destination's FIFO. *)
          let d = c - 1 in
          add ((((1 + p + d) * p) + m.qlen.(d) - (c * p)) * wi) mu_st
        end
        else if c = m.rep_wire then
          add ((((m.rep_home - m.rep_wire) * p) + m.qlen.(i)) * wi) mu_st
        (* Queued requests and replies progress via their FIFO's head. *)
      done;
      (* Handler completions: the head of each non-empty FIFO finishes at
         rate mu_so, and every item behind it moves up one place. *)
      for k = 0 to p - 1 do
        if m.qlen.(k) > 0 then begin
          let h = m.head.(k) in
          let shift = m.weight.(h) - m.qweight.(k) in
          if h = k then
            (* Node k's own reply completes: its thread starts a new cycle. *)
            add (shift - (m.rep_home * p * m.weight.(k))) mu_so
          else add (shift + ((m.rep_wire - m.code.(h)) * p * m.weight.(h))) mu_so
        end
      done;
      !moves
    in
    Some (m, 0, transitions)
  end

(* Steady-state aggregates of a solved chain, read off node 0's FIFO. *)
let aggregate m ~mu_so sol =
  let expect f = Ctmc.expectation sol ~f:(fun key -> decode m key; f ()) in
  let indicator b = if b then 1. else 0. in
  let rep_head () = indicator (m.qlen.(0) > 0 && m.head.(0) = 0) in
  let reps () = if m.code.(0) = m.rep_home then 1 else 0 in
  (* Per-node completion rate: head of node 0's FIFO is a reply. *)
  let uy = expect rep_head in
  let throughput = mu_so *. uy in
  {
    states = Ctmc.states sol;
    cycle_time = 1. /. throughput;
    throughput;
    qq = expect (fun () -> Float.of_int (m.qlen.(0) - reps ()));
    qy = expect (fun () -> Float.of_int (reps ()));
    uq = expect (fun () -> indicator (m.qlen.(0) > 0 && m.head.(0) <> 0));
    uy;
  }

let all_to_all_status ?budget ?(max_states = 2_000_000) ~p ~w ~so ~st () =
  match model ~p ~w ~so ~st with
  | None -> (None, Ctmc.Too_large { max_states })
  | Some (m, initial, transitions) -> (
    match Ctmc.solve_status ?budget ~max_states ~initial ~transitions () with
    | Some sol, status -> (Some (aggregate m ~mu_so:(1. /. so) sol), status)
    | None, status -> (None, status))

(* Like [Ctmc.solve]: raises on overflow and returns the last iterate of a
   non-converged sweep. *)
let all_to_all ?max_states ~p ~w ~so ~st () =
  match all_to_all_status ?max_states ~p ~w ~so ~st () with
  | Some r, _ -> r
  | None, Ctmc.Too_large { max_states } -> raise (Ctmc.State_space_too_large max_states)
  | None, _ ->
    (* No budget was passed, so no other solution-less status can occur. *)
    assert false
