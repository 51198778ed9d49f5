type 'state solution = {
  state_of_id : 'state array;
      (* states in discovery order: [fold] iterates this array so results
         never depend on Hashtbl bucket order *)
  pi : float array;
}

exception State_space_too_large of int

type status =
  | Converged of { iters : int }
  | Not_converged of { iters : int; diff : float }
  | Exhausted of { reason : Lopc_robust.Budget.stop_reason }
  | Too_large of { max_states : int }

type iteration = Auto | Power | Gauss_seidel

(* The reachable chain with its moves labelled, not priced. Exploration is
   a plain BFS that expands states in id order, so state [i]'s row is
   complete before row [i + 1] begins. Row [i] holds the labels of state
   [i]'s off-diagonal moves, in the exact order the caller's [transitions]
   produced them: duplicate destinations stay separate entries, so the
   float sums that pricing and the sweeps build run in the historical
   order bit for bit. Only the row boundaries and labels are kept in row
   order; the destinations live in the column-major twin, which both
   sweeps read. *)
type ('state, 'label) graph = {
  state_of_id : 'state array;  (* length n, discovery order *)
  found : int array;           (* length n: states discovered once row i was expanded *)
  row_ptr : int array;         (* length n + 1 *)
  label : 'label array;        (* length nnz, row order *)
  (* Incoming moves per state, sources in ascending id order (and a
     source's entries in its row's order). *)
  col_ptr : int array;         (* length n + 1 *)
  src : int array;             (* length nnz: source ids *)
  entry : int array;           (* length nnz: the entry's position in row order *)
  gauss_seidel : bool;         (* the sweep: Gauss–Seidel, or else power *)
}

(* The priced generator of one solve. *)
type rates = {
  in_rate : float array;       (* length nnz, column order *)
  out_rate : float array;      (* length n: total exit rate per state *)
}

(* Strong connectivity of the reachable chain: forward cover from state 0
   (free — exploration guarantees it) plus backward cover over the
   incoming moves. A strongly connected chain has a unique stationary
   distribution, which is what licenses Gauss–Seidel; anything else
   (absorbing states, several recurrent classes) keeps the historical
   power-iteration limit. It depends on the graph alone, never on the
   rates, as long as every label prices strictly positive. *)
let strongly_connected ~n ~col_ptr ~src =
  let seen = Bytes.make n '\000' in
  Bytes.set seen 0 '\001';
  let stack = ref [ 0 ] in
  let covered = ref 1 in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | j :: rest ->
      stack := rest;
      for k = col_ptr.(j) to col_ptr.(j + 1) - 1 do
        let i = src.(k) in
        if Bytes.get seen i = '\000' then begin
          Bytes.set seen i '\001';
          incr covered;
          stack := i :: !stack
        end
      done
  done;
  !covered = n
[@@lint.allow
  "unbounded-retry"
    "the worklist loop visits each of the n states at most once (guarded by \
     the [seen] byte set), so it is bounded by the already-capped state count; \
     the caller's budget was consulted once per state during exploration"]

(* One l1 residual of the balance equations, scaled like a uniformized
   power step: ||pi Q||_1 / lambda = sum_j |sum_i pi_i q_ij - pi_j q_j| / lambda.
   This is exactly the successive-iterate l1 step a power sweep would take
   from [pi], so the convergence threshold means the same thing for every
   method. *)
let residual g r ~lambda pi =
  let acc = ref 0. in
  for j = 0 to Array.length pi - 1 do
    let inflow = ref 0. in
    for k = g.col_ptr.(j) to g.col_ptr.(j + 1) - 1 do
      inflow := !inflow +. (pi.(g.src.(k)) *. r.in_rate.(k))
    done;
    acc := !acc +. Float.abs (!inflow -. (pi.(j) *. r.out_rate.(j)))
  done;
  !acc /. lambda

let normalize pi =
  let s = Array.fold_left ( +. ) 0. pi in
  if s > 0. && Float.is_finite s then
    for i = 0 to Array.length pi - 1 do
      pi.(i) <- pi.(i) /. s
    done

let invalid_rate () = invalid_arg "Ctmc.solve: non-positive or non-finite rate"

(* [a] if index [i] is inside it, or else a copy at least twice as long,
   padded with [x]. *)
let room a i x =
  if i < Array.length a then a
  else begin
    let fresh = Array.make (Int.max (i + 1) (2 * Array.length a)) x in
    Array.blit a 0 fresh 0 (Array.length a);
    fresh
  end

(* Exploration, keeping only the moves [keep] accepts: a dropped move's
   successor is not discovered through it. *)
let explore_kept ~keep ?budget ?(iteration = Auto) ?(max_states = 2_000_000) ~initial
    ~transitions () =
  try
    (* Budget stops raise [Budget.Stop] at the loop head below; the check
       lives inside this [try] so it is lexically within the handler that
       maps the stop onto [Exhausted] (the exn-escape rule reasons
       lexically). One unit of fuel per expanded state. Ids are assigned
       at discovery and states are expanded in id order, so
       [state_of_id] past [filled] is the BFS frontier. *)
    let index : ('state, int) Hashtbl.t = Hashtbl.create 4096 in
    let state_of_id = ref [||] and count = ref 0 in
    let id_of s =
      match Hashtbl.find_opt index s with
      | Some i -> i
      | None ->
        if !count >= max_states then raise (State_space_too_large max_states);
        let i = !count in
        Hashtbl.add index s i;
        state_of_id := room !state_of_id i s;
        (!state_of_id).(i) <- s;
        incr count;
        i
    in
    ignore (id_of initial);
    let row_ptr = ref [| 0 |] and found = ref [||] in
    let col = ref [||] and label = ref [||] and nnz = ref 0 in
    let filled = ref 0 in
    while !filled < !count do
      Lopc_robust.Budget.check_exn budget;
      let i = !filled in
      let s = (!state_of_id).(i) in
      incr filled;
      List.iter
        (fun (s', l) ->
          if keep l then begin
            let j = id_of s' in
            (* Self-loops compare by id (int), not by polymorphic
               equality on the caller's state type. *)
            if j <> i then begin
              col := room !col !nnz 0;
              label := room !label !nnz l;
              (!col).(!nnz) <- j;
              (!label).(!nnz) <- l;
              incr nnz
            end
          end)
        (transitions s);
      row_ptr := room !row_ptr (i + 1) 0;
      (!row_ptr).(i + 1) <- !nnz;
      found := room !found i 0;
      (!found).(i) <- !count
    done;
    let n = !count and nnz = !nnz in
    let row_ptr = Array.sub !row_ptr 0 (n + 1) and col = !col in
    (* The column-major twin, filled row by row so each column's sources
       come in ascending id order. *)
    let col_ptr = Array.make (n + 1) 0 in
    for k = 0 to nnz - 1 do
      let j = col.(k) in
      col_ptr.(j + 1) <- col_ptr.(j + 1) + 1
    done;
    for j = 1 to n do
      col_ptr.(j) <- col_ptr.(j) + col_ptr.(j - 1)
    done;
    let src = Array.make nnz 0 and entry = Array.make nnz 0 in
    let fill = Array.sub col_ptr 0 n in
    for i = 0 to n - 1 do
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col.(k) in
        let pos = fill.(j) in
        fill.(j) <- pos + 1;
        src.(pos) <- i;
        entry.(pos) <- k
      done
    done;
    let gauss_seidel =
      match iteration with
      | Auto -> strongly_connected ~n ~col_ptr ~src
      | Power -> false
      | Gauss_seidel -> true
    in
    Ok
      {
        state_of_id = Array.sub !state_of_id 0 n;
        found = Array.sub !found 0 n;
        row_ptr;
        label = Array.sub !label 0 nnz;
        col_ptr;
        src;
        entry;
        gauss_seidel;
      }
  with
  | Lopc_robust.Budget.Stop reason -> Error (Exhausted { reason })
  | State_space_too_large max_states -> Error (Too_large { max_states })

let explore ?budget ?iteration ?max_states ~initial ~transitions () =
  explore_kept ~keep:(fun _ -> true) ?budget ?iteration ?max_states ~initial ~transitions ()

let size g = Array.length g.state_of_id

let state g i = g.state_of_id.(i)

let discovered g i = g.found.(i)

(* Prices every label once, in row order, then sums each row's exit rate
   in that order and gathers the incoming rates by column. *)
let rates g price =
  let n = size g in
  let rate =
    Array.map
      (fun l ->
        let r = price l in
        if r > 0. && Float.is_finite r then r else invalid_rate ())
      g.label
  in
  let out_rate =
    Array.init n (fun i ->
        let acc = ref 0. in
        for k = g.row_ptr.(i) to g.row_ptr.(i + 1) - 1 do
          acc := !acc +. rate.(k)
        done;
        !acc)
  in
  { in_rate = Array.map (fun k -> rate.(k)) g.entry; out_rate }

let solve ?budget ?(tol = 1e-12) ?(max_iter = 200_000) g ~price =
  let r = rates g price in
  let n = size g in
  try
    (* One unit of fuel per counted sweep, whatever the method; the checks
       live inside this [try] (see [explore_kept]). *)
    let lambda = 1.01 *. Array.fold_left Float.max 1e-12 r.out_rate in
    let iter = ref 0 in
    let last_diff = ref Float.infinity in
    let converged = ref false in
    let power pi next =
      (* Uniformized power iteration pi <- pi P, P = I + Q / lambda, pulled
         column by column. [next.(j)] adds its incoming terms in ascending
         source order with its own stay term between the sources below [j]
         and those above it: the order in which a row-by-row scatter of
         [pi P] would add them. [diff] doubles as the l1 residual of the
         pre-sweep iterate (next - pi = pi (P - I) = pi Q / lambda), so
         convergence is residual-based; each accepted iterate is
         renormalized so float drift cannot accumulate over long runs
         (historically [sum pi] drifted freely and convergence was
         declared on the raw step). *)
      while (not !converged) && !iter < max_iter do
        Lopc_robust.Budget.check_exn budget;
        incr iter;
        for j = 0 to n - 1 do
          let stay = pi.(j) *. (1. -. (r.out_rate.(j) /. lambda)) in
          let acc = ref 0. and stayed = ref false in
          for k = g.col_ptr.(j) to g.col_ptr.(j + 1) - 1 do
            let i = g.src.(k) in
            if i > j && not !stayed then begin
              acc := !acc +. stay;
              stayed := true
            end;
            acc := !acc +. (pi.(i) *. r.in_rate.(k) /. lambda)
          done;
          next.(j) <- (if !stayed then !acc else !acc +. stay)
        done;
        let diff = ref 0. in
        for i = 0 to n - 1 do
          diff := !diff +. Float.abs (next.(i) -. pi.(i))
        done;
        Array.blit next 0 pi 0 n;
        normalize pi;
        last_diff := !diff;
        if !diff <= tol then converged := true
      done
    in
    (* Balance-equation Gauss–Seidel on the incoming moves:
       pi_j <- (sum_{i<>j} pi_i q_ij) / q_j, sweeping states in id order
       and consuming updated values immediately. Only selected when the
       chain is strongly connected, so every q_j is strictly positive and
       the fixed point is the unique stationary distribution — the same
       limit power iteration reaches, in far fewer sweeps on the stiff
       chains the exact LoPC machine produces.

       [sweep cur next] writes the renormalized x(k+1) into [next] from
       x(k) in [cur], and in the same pass returns the scaled residual of
       x(k): a source below [j] enters the Gauss–Seidel sum from [next]
       and the residual from [cur], a source above [j] enters both from
       [cur] with one product. The residual adds the same terms in the
       same order as [residual g r ~lambda cur], so testing x(k) costs no
       pass of its own. *)
    let sweep cur next =
      let acc = ref 0. in
      for j = 0 to n - 1 do
        let q_j = r.out_rate.(j) in
        let inflow = ref 0. and old = ref 0. in
        let hi = g.col_ptr.(j + 1) in
        let k = ref g.col_ptr.(j) in
        while !k < hi && g.src.(!k) < j do
          let rate = r.in_rate.(!k) and i = g.src.(!k) in
          inflow := !inflow +. (next.(i) *. rate);
          old := !old +. (cur.(i) *. rate);
          incr k
        done;
        while !k < hi do
          let x = cur.(g.src.(!k)) *. r.in_rate.(!k) in
          inflow := !inflow +. x;
          old := !old +. x;
          incr k
        done;
        acc := !acc +. Float.abs (!old -. (cur.(j) *. q_j));
        next.(j) <- (if q_j > 0. then !inflow /. q_j else cur.(j))
      done;
      normalize next;
      !acc /. lambda
    in
    let pi = Array.make n (1. /. Float.of_int n) and spare = Array.make n 0. in
    let pi =
      if not g.gauss_seidel then begin
        power pi spare;
        pi
      end
      else if max_iter <= 0 then pi
      else begin
        (* [settle cur next] starts with x(k) in [cur] after [iter] = k
           counted sweeps. Once x(k) is known to miss the tolerance, sweep
           k + 1 is charged its fuel and counted; when x(k) meets it, sweep
           k + 1 is discarded uncharged and x(k) is the answer. At
           [max_iter] only x(k)'s residual is computed. *)
        let rec settle cur next =
          let res = if !iter < max_iter then sweep cur next else residual g r ~lambda cur in
          last_diff := res;
          if res <= tol then begin
            converged := true;
            cur
          end
          else if not (Float.is_finite res) then begin
            (* Defensive: an iterate went non-finite (pathological rate
               spread). Restart on the unconditionally safe power path,
               keeping the fuel and iteration budgets already spent. *)
            Array.fill cur 0 n (1. /. Float.of_int n);
            power cur next;
            cur
          end
          else if !iter >= max_iter then cur
          else begin
            Lopc_robust.Budget.check_exn budget;
            incr iter;
            settle next cur
          end
        in
        (* The residual of the uniform start is never tested. *)
        Lopc_robust.Budget.check_exn budget;
        iter := 1;
        ignore (sweep pi spare : float);
        settle spare pi
      end
    in
    let sol = { state_of_id = g.state_of_id; pi } in
    if !converged then (Some sol, Converged { iters = !iter })
    else (Some sol, Not_converged { iters = !iter; diff = !last_diff })
  with Lopc_robust.Budget.Stop reason -> (None, Exhausted { reason })

(* A rate is its own label. A zero rate is dropped as it is explored, and
   a negative or non-finite one is refused there, before its successor
   is discovered. *)
let solve_status ?budget ?iteration ?max_states ?tol ?max_iter ~initial ~transitions () =
  let keep r =
    if r < 0. || not (Float.is_finite r) then invalid_rate ();
    not (Float.equal r 0.)
  in
  match explore_kept ~keep ?budget ?iteration ?max_states ~initial ~transitions () with
  | Ok g -> solve ?budget ?tol ?max_iter g ~price:Fun.id
  | Error status -> (None, status)
[@@lint.allow
  "test-only-export"
    "the rate-labelled form of explore then solve, for chains priced as they \
     are explored; the exact machine keeps its graph and calls the two steps, \
     and exn-escape holds both steps to the non-raising contract through this \
     entry"]

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i s -> acc := f !acc s t.pi.(i)) t.state_of_id;
  !acc
