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
   significant digit.

   Lumping. Every node sends to a uniformly random peer, so relabelling
   the nodes by a permutation [s] maps the chain onto itself: node [i]'s
   digit moves to place [s i], a destination [d] inside codes [1 + d] and
   [1 + p + d] becomes [s d], and positions are unchanged. The orbits of
   that action are therefore an exact (ordinary) lumping, and the chain
   is explored over orbits only, each named by its smallest key. *)

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

let factorial p =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 p

(* What sets a move's rate: a thread issuing its request toward one peer
   (1 / (W (p - 1))), a message landing off the wire (1 / St), or a
   handler completing (1 / So). *)
type kind = Issue | Wire | Handler

type machine = {
  p : int;
  base : int;                 (* radix p *)
  weight : int array;         (* weight.(i) = base^i *)
  rep_wire : int;             (* phase code 2p + 1 *)
  rep_home : int;             (* phase code 2p + 2 *)
  code_of : int array;        (* code_of.(digit) = digit / p *)
  n_perms : int;              (* p! *)
  (* Scratch filled by [decode]. *)
  code : int array;           (* phase code per node *)
  qlen : int array;           (* items per FIFO *)
  qweight : int array;        (* sum of the weights of the items' owners *)
  head : int array;           (* owner of the item at position 0 *)
  (* Scratch filled by [canonical]. *)
  dest : int array;           (* node named by the phase code, or -1 *)
  low : int array;            (* digit with that node renamed to 0 *)
  free : bool array;          (* no destination, and no node's destination *)
  place_of : int array;       (* place given to each node so far, or -1 *)
  pinned : int array;         (* pinned.(place) = node forced there, below lo *)
  prefix : int array;         (* prefix.(place) = best key / base^place *)
  mutable best : int;
  mutable ties : int;
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
    n_perms = factorial p;
    code = Array.make p 0;
    qlen = Array.make p 0;
    qweight = Array.make p 0;
    head = Array.make p 0;
    dest = Array.make p 0;
    low = Array.make p 0;
    free = Array.make p true;
    place_of = Array.make p (-1);
    pinned = Array.make p 0;
    prefix = Array.make p 0;
    best = max_int;
    ties = 0;
  }

(* One integer division per node: exploration's hot loop runs through
   here, and the counts an explored orbit keeps for the aggregates are
   read off it. *)
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

let set_best m key =
  m.best <- key;
  for place = 0 to m.p - 1 do
    m.prefix.(place) <- key / m.weight.(place)
  done

(* Unplaced node [i]'s digit at [place], with [lo] the smallest free
   place: its destination keeps its place if it has one, and is otherwise
   sent to [lo], the cheapest place still open to it. *)
let digit_at m i place lo =
  let d = m.dest.(i) in
  if d < 0 then m.low.(i)
  else
    let q = m.place_of.(d) in
    m.low.(i) + (m.p * if q >= 0 then q else if d = i then place else lo)

(* Relabellings that can still reach the best key, built from the most
   significant [place] down with [acc] the digits above it. Places above
   [place] and below [lo] are taken; those below [lo] were pinned to the
   destinations that placed nodes named. *)
let rec search m place lo acc =
  if place < 0 then begin
    if acc < m.best then begin
      set_best m acc;
      m.ties <- 1
    end
    else m.ties <- m.ties + 1
  end
  else if place < lo then begin
    (* Every node is placed: the rest of the key is fixed. *)
    let i = m.pinned.(place) in
    let d = m.dest.(i) in
    let acc = (acc * m.base) + m.low.(i) + if d < 0 then 0 else m.place_of.(d) * m.p in
    if acc <= m.prefix.(place) then search m (place - 1) lo acc
  end
  else begin
    let least = ref max_int in
    for i = 0 to m.p - 1 do
      if m.place_of.(i) < 0 then least := Int.min !least (digit_at m i place lo)
    done;
    let acc = (acc * m.base) + !least in
    if acc <= m.prefix.(place) then begin
      (* The first free node with the least digit stands in for all of
         them (see [canonical]). *)
      let stand_in = ref (-1) and twins = ref 0 in
      for i = 0 to m.p - 1 do
        if m.place_of.(i) < 0 && digit_at m i place lo = !least then
          if m.free.(i) then begin
            if !twins = 0 then stand_in := i;
            incr twins
          end
          else branch m place lo acc i
      done;
      if !twins > 0 then begin
        let best = m.best and ties = m.ties in
        branch m place lo acc !stand_in;
        let found = if m.best < best then m.ties else m.ties - ties in
        m.ties <- m.ties + ((!twins - 1) * found)
      end
    end
  end

(* Node [i] at [place], and its destination pinned to [lo] if it has no
   place yet. *)
and branch m place lo acc i =
  m.place_of.(i) <- place;
  let d = m.dest.(i) in
  if d >= 0 && m.place_of.(d) < 0 then begin
    m.place_of.(d) <- lo;
    m.pinned.(lo) <- d;
    search m (place - 1) (lo + 1) acc;
    m.place_of.(d) <- -1
  end
  else search m (place - 1) lo acc;
  m.place_of.(i) <- -1

(* [(min, ties)]: the smallest key over all [p!] relabellings of [key],
   and how many relabellings reach it: the size of [key]'s stabiliser, so
   its orbit holds [p! / ties] states.

   Branch and bound over places, most significant first. A relabelling
   that reaches the minimum puts at each place a node whose digit is the
   least any unplaced node can have there, so only those nodes are tried.
   A node whose destination is still unplaced needs that destination at
   the smallest free place: any other place gives a larger digit here, so
   the destination is pinned there at once. Prefixes above the best key's
   are dropped, and the leaves that reach the best key are its
   stabiliser. A free node (no destination, and nobody's destination)
   can trade places with any free node of the same digit without changing
   [key], so of several such candidates at one place only the first is
   searched and its leaves are counted once for each. *)
let canonical m key =
  let p = m.p in
  Array.fill m.free 0 p true;
  let rest = ref key in
  for i = 0 to p - 1 do
    let higher = !rest / m.base in
    let digit = !rest - (higher * m.base) in
    rest := higher;
    let c = m.code_of.(digit) in
    let d = if c = 0 || c > 2 * p then -1 else if c <= p then c - 1 else c - 1 - p in
    m.dest.(i) <- d;
    m.low.(i) <- (if d < 0 then digit else digit - (d * p));
    if d >= 0 then begin
      m.free.(i) <- false;
      m.free.(d) <- false
    end
  done;
  set_best m max_int;
  m.ties <- 0;
  search m (p - 1) 0 0;
  (m.best, m.ties)

(* The canonical key of [key]'s orbit, recording the orbit's size in
   [sizes] the first time the orbit is named, so no representative is
   canonicalised twice. *)
let name m sizes key =
  let rep, ties = canonical m key in
  Hashtbl.replace sizes rep (m.n_perms / ties);
  rep

(* The labelled moves out of orbit [key], consed as they are generated,
   so the list holds them in reverse generation order; exploration order,
   and hence every solved float and the committed tables, depends on that
   order. Each successor is named by its orbit, so moves into one orbit
   become duplicate entries whose rates [Ctmc] sums. *)
let expand m sizes key =
  let p = m.p in
  decode m key;
  let moves = ref [] in
  let add delta kind = moves := (name m sizes (key + delta), kind) :: !moves in
  for i = 0 to p - 1 do
    let c = m.code.(i) and wi = m.weight.(i) in
    if c = 0 then begin
      (* The thread runs only while its own FIFO is empty (preempt-resume
         is free under memoryless work). On completion it sends to a
         uniformly random peer. *)
      if m.qlen.(i) = 0 then
        for d = 0 to p - 1 do
          if d <> i then add ((1 + d) * p * wi) Issue
        done
    end
    else if c <= p then begin
      (* Request lands at the tail of its destination's FIFO. *)
      let d = c - 1 in
      add ((((1 + p + d) * p) + m.qlen.(d) - (c * p)) * wi) Wire
    end
    else if c = m.rep_wire then add ((((m.rep_home - m.rep_wire) * p) + m.qlen.(i)) * wi) Wire
    (* Queued requests and replies progress via their FIFO's head. *)
  done;
  (* Handler completions: the head of each non-empty FIFO finishes, and
     every item behind it moves up one place. *)
  for k = 0 to p - 1 do
    if m.qlen.(k) > 0 then begin
      let h = m.head.(k) in
      let shift = m.weight.(h) - m.qweight.(k) in
      if h = k then
        (* Node k's own reply completes: its thread starts a new cycle. *)
        add (shift - (m.rep_home * p * m.weight.(k))) Handler
      else add (shift + ((m.rep_wire - m.code.(h)) * p * m.weight.(h))) Handler
    end
  done;
  !moves

(* The lumped chain of one [p]: its orbit graph, each move labelled with
   what sets its rate, and per orbit, in discovery order, its size and
   the four counts [aggregate] weighs. It depends on [p] alone, never on
   W, So or St, and is never written once built. *)
type chain = {
  graph : (int, kind) Ctmc.graph;  (* over canonical keys; start key 0 *)
  size : int array;                (* states in each orbit *)
  counts : int array;
      (* four per orbit: requests queued, replies queued, handlers busy on
         a request, handlers busy on a reply; all summed over the nodes *)
  states : int;                    (* the sum of [size] *)
}

(* One cell per [p]: the first chain explored to completion, or [None]. *)
let published = Array.init (max_nodes + 1) (fun _ -> Atomic.make None)

(* Explores [p]'s chain from key 0, every node working and every FIFO
   empty: the smallest key, alone in its orbit. The transition function
   refuses once the orbits it has expanded hold more than [max_states]
   states. A completed exploration is published: of two chains for one
   [p], explored at once on two domains, the first stays; they are
   equal. A budget stop or a refusal publishes nothing. *)
let explore ?budget ~max_states p =
  let m = machine p in
  let sizes = Hashtbl.create 1024 in
  Hashtbl.replace sizes 0 1;
  let expanded = ref 0 in
  let transitions key =
    expanded := !expanded + Hashtbl.find sizes key;
    if !expanded > max_states then raise (Ctmc.State_space_too_large max_states);
    expand m sizes key
  in
  match Ctmc.explore ?budget ~max_states ~initial:0 ~transitions () with
  | Error status -> Error status
  | Ok graph ->
    let n = Ctmc.size graph in
    let size = Array.init n (fun i -> Hashtbl.find sizes (Ctmc.state graph i)) in
    let counts = Array.make (4 * n) 0 in
    for i = 0 to n - 1 do
      decode m (Ctmc.state graph i);
      let items = ref 0 and replies = ref 0 and busy_q = ref 0 and busy_y = ref 0 in
      for k = 0 to p - 1 do
        items := !items + m.qlen.(k);
        if m.code.(k) = m.rep_home then incr replies;
        if m.qlen.(k) > 0 then if m.head.(k) = k then incr busy_y else incr busy_q
      done;
      counts.(4 * i) <- !items - !replies;
      counts.((4 * i) + 1) <- !replies;
      counts.((4 * i) + 2) <- !busy_q;
      counts.((4 * i) + 3) <- !busy_y
    done;
    let chain = { graph; size; counts; states = Array.fold_left ( + ) 0 size } in
    ignore (Atomic.compare_and_set published.(p) None (Some chain));
    Ok chain

(* A published chain, passed through the checks its exploration made, in
   the same order: one unit of fuel per orbit, then the cap on the states
   of the orbits expanded so far and [Ctmc]'s cap on the orbits
   discovered so far. So every status and fuel count is the one a cold
   exploration reports. *)
let replay ?budget ~max_states chain =
  let refused = Error (Ctmc.Too_large { max_states }) in
  let n = Ctmc.size chain.graph in
  let rec row i expanded =
    if i = n then Ok chain
    else
      match Option.bind budget Lopc_robust.Budget.check with
      | Some reason -> Error (Ctmc.Exhausted { reason })
      | None ->
        let expanded = expanded + chain.size.(i) in
        if expanded > max_states || Ctmc.discovered chain.graph i > max_states then refused
        else row (i + 1) expanded
  in
  (* Exploration discovers the start orbit before its first check. *)
  if max_states < 1 then refused else row 0 0

(* Steady-state aggregates of the lumped chain: every quantity is a
   per-node average over all [p] nodes, a symmetric function of the
   state, so an orbit's counts stand for all of its states. One dot
   product per quantity over the orbits in discovery order. *)
let aggregate chain ~p ~mu_so sol =
  let _, qq, qy, uq, uy =
    Ctmc.fold sol ~init:(0, 0., 0., 0., 0.) ~f:(fun (i, qq, qy, uq, uy) _ pi ->
        let add acc c = acc +. (pi *. Float.of_int chain.counts.((4 * i) + c)) in
        (i + 1, add qq 0, add qy 1, add uq 2, add uy 3))
  in
  let per_node x = x /. Float.of_int p in
  (* Per-node completion rate: a reply heads its home FIFO. *)
  let uy = per_node uy in
  let throughput = mu_so *. uy in
  {
    states = chain.states;
    cycle_time = 1. /. throughput;
    throughput;
    qq = per_node qq;
    qy = per_node qy;
    uq = per_node uq;
    uy;
  }

let all_to_all_status ?budget ?(max_states = 2_000_000) ~p ~w ~so ~st () =
  if p < 2 then invalid_arg "Exact_machine: need at least two nodes";
  List.iter
    (fun (name, v) ->
      if v <= 0. || not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "Exact_machine: %s must be strictly positive" name))
    [ ("w", w); ("so", so); ("st", st) ];
  if p > max_nodes then (None, Ctmc.Too_large { max_states })
  else
    let explored =
      match Atomic.get published.(p) with
      | Some chain -> replay ?budget ~max_states chain
      | None -> explore ?budget ~max_states p
    in
    match explored with
    | Error status -> (None, status)
    | Ok chain -> (
      let mu_req = 1. /. w /. Float.of_int (p - 1) and mu_so = 1. /. so and mu_st = 1. /. st in
      let rate = function Issue -> mu_req | Wire -> mu_st | Handler -> mu_so in
      match Ctmc.solve ?budget chain.graph ~price:rate with
      | Some sol, status -> (Some (aggregate chain ~p ~mu_so sol), status)
      | None, status -> (None, status))
