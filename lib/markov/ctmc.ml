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

(* The reachable generator in compressed sparse row form. Row [i] holds the
   off-diagonal outgoing transitions of state [i], in the exact order the
   caller's [transitions] function produced them (duplicate destinations
   stay separate entries, so float accumulation order — and hence the
   result — matches the historical list-of-rows representation
   bit-for-bit). Rows are laid out in discovery order: exploration is a
   plain BFS that expands states — and appends their rows — in id order,
   which is what lets the matrix be built in one pass with no intermediate
   per-row lists. *)
type csr = {
  n : int;
  row_ptr : int array;        (* length n + 1 *)
  col : int array;            (* length nnz: destination ids *)
  rate : float array;         (* length nnz: transition rates *)
  out_rate : float array;     (* length n: total exit rate per state *)
}

(* Column-major twin of the CSR matrix: incoming transitions per state,
   sources in ascending id order. Only built for Gauss–Seidel sweeps. *)
type csc = {
  col_ptr : int array;        (* length n + 1 *)
  src : int array;            (* length nnz: source ids *)
  in_rate : float array;      (* length nnz *)
}

let csc_of_csr (m : csr) =
  let nnz = m.row_ptr.(m.n) in
  let counts = Array.make (m.n + 1) 0 in
  for k = 0 to nnz - 1 do
    let j = m.col.(k) in
    counts.(j + 1) <- counts.(j + 1) + 1
  done;
  for j = 1 to m.n do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let col_ptr = Array.copy counts in
  let src = Array.make nnz 0 in
  let in_rate = Array.make nnz 0. in
  let fill = Array.copy counts in
  for i = 0 to m.n - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col.(k) in
      let pos = fill.(j) in
      fill.(j) <- pos + 1;
      src.(pos) <- i;
      in_rate.(pos) <- m.rate.(k)
    done
  done;
  { col_ptr; src; in_rate }

(* Strong connectivity of the reachable chain: forward cover from state 0
   (free — exploration guarantees it) plus backward cover over the
   transposed matrix. A strongly connected chain has a unique stationary
   distribution, which is what licenses Gauss–Seidel; anything else
   (absorbing states, several recurrent classes) keeps the historical
   power-iteration limit. *)
let strongly_connected (m : csr) (c : csc) =
  if m.n = 0 then true
  else begin
    let seen = Bytes.make m.n '\000' in
    Bytes.set seen 0 '\001';
    let stack = ref [ 0 ] in
    let covered = ref 1 in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | j :: rest ->
        stack := rest;
        for k = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
          let i = c.src.(k) in
          if Bytes.get seen i = '\000' then begin
            Bytes.set seen i '\001';
            incr covered;
            stack := i :: !stack
          end
        done
    done;
    !covered = m.n
  end
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
let residual (m : csr) (c : csc) ~lambda pi =
  let acc = ref 0. in
  for j = 0 to m.n - 1 do
    let inflow = ref 0. in
    for k = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
      inflow := !inflow +. (pi.(c.src.(k)) *. c.in_rate.(k))
    done;
    acc := !acc +. Float.abs (!inflow -. (pi.(j) *. m.out_rate.(j)))
  done;
  !acc /. lambda

let normalize pi =
  let s = Array.fold_left ( +. ) 0. pi in
  if s > 0. && Float.is_finite s then
    for i = 0 to Array.length pi - 1 do
      pi.(i) <- pi.(i) /. s
    done

let solve_status ?budget ?(iteration = Auto) ?(max_states = 2_000_000)
    ?(tol = 1e-12) ?(max_iter = 200_000) ~initial ~transitions () =
  try
    (* Budget stops raise [Budget.Stop] at the loop heads below; every
       check lives inside this [try] so it is lexically within the handler
       that maps the stop onto [Exhausted] (the exn-escape rule reasons
       lexically). *)
    (* Phase 1: explore the reachable state space (one unit of fuel per
       expanded state) and append each expanded state's row straight into
       the CSR arrays. Ids are assigned at discovery and states are
       expanded in id order, so [state_of_id] past [filled] is the BFS
       frontier and row [i] is complete before row [i + 1] begins. *)
    let index : ('state, int) Hashtbl.t = Hashtbl.create 4096 in
    let state_of_id = ref (Array.make 64 initial) in
    let count = ref 0 in
    let id_of s =
      match Hashtbl.find_opt index s with
      | Some i -> i
      | None ->
        if !count >= max_states then raise (State_space_too_large max_states);
        let i = !count in
        Hashtbl.add index s i;
        if i >= Array.length !state_of_id then begin
          let fresh = Array.make (2 * Array.length !state_of_id) s in
          Array.blit !state_of_id 0 fresh 0 (Array.length !state_of_id);
          state_of_id := fresh
        end;
        (!state_of_id).(i) <- s;
        incr count;
        i
    in
    ignore (id_of initial);
    let row_ptr = ref (Array.make 65 0) in
    let col = ref (Array.make 256 0) in
    let rate = ref (Array.make 256 0.) in
    let nnz = ref 0 in
    let push_entry j r =
      if !nnz >= Array.length !col then begin
        let cap = 2 * Array.length !col in
        let col' = Array.make cap 0 and rate' = Array.make cap 0. in
        Array.blit !col 0 col' 0 !nnz;
        Array.blit !rate 0 rate' 0 !nnz;
        col := col';
        rate := rate'
      end;
      (!col).(!nnz) <- j;
      (!rate).(!nnz) <- r;
      incr nnz
    in
    let filled = ref 0 in
    while !filled < !count do
      Lopc_robust.Budget.check_exn budget;
      let i = !filled in
      let s = (!state_of_id).(i) in
      incr filled;
      if i + 1 >= Array.length !row_ptr then begin
        let fresh = Array.make (2 * Array.length !row_ptr) 0 in
        Array.blit !row_ptr 0 fresh 0 (Array.length !row_ptr);
        row_ptr := fresh
      end;
      List.iter
        (fun (s', r) ->
          if r < 0. || not (Float.is_finite r) then
            invalid_arg "Ctmc.solve: non-positive or non-finite rate";
          if not (Float.equal r 0.) then begin
            let j = id_of s' in
            (* Self-loops compare by id (int), not by polymorphic
               equality on the caller's state type. *)
            if j <> i then push_entry j r
          end)
        (transitions s);
      (!row_ptr).(i + 1) <- !nnz
    done;
    let n = !count in
    let m =
      {
        n;
        row_ptr = Array.sub !row_ptr 0 (n + 1);
        col = Array.sub !col 0 !nnz;
        rate = Array.sub !rate 0 !nnz;
        out_rate =
          Array.init n (fun i ->
              let acc = ref 0. in
              for k = (!row_ptr).(i) to (!row_ptr).(i + 1) - 1 do
                acc := !acc +. (!rate).(k)
              done;
              !acc);
      }
    in
    let state_of_id = Array.sub !state_of_id 0 n in
    (* Phase 2: pick a sweep and iterate to the stationary distribution.
       One unit of fuel per sweep, whatever the method. *)
    let lambda = 1.01 *. Array.fold_left Float.max 1e-12 m.out_rate in
    let c = csc_of_csr m in
    let method_ =
      match iteration with
      | Auto -> if strongly_connected m c then Gauss_seidel else Power
      | (Power | Gauss_seidel) as it -> it
    in
    let pi = Array.make n (1. /. Float.of_int n) in
    let iter = ref 0 in
    let last_diff = ref Float.infinity in
    let converged = ref false in
    let power () =
      (* Uniformized power iteration pi <- pi P, P = I + Q / lambda, on the
         CSR rows. [diff] doubles as the l1 residual of the pre-sweep
         iterate (next - pi = pi (P - I) = pi Q / lambda), so convergence
         is residual-based; each accepted iterate is renormalized so float
         drift cannot accumulate over long runs (historically [sum pi]
         drifted freely and convergence was declared on the raw step). *)
      let next = Array.make n 0. in
      while (not !converged) && !iter < max_iter do
        Lopc_robust.Budget.check_exn budget;
        incr iter;
        Array.fill next 0 n 0.;
        for i = 0 to n - 1 do
          let stay = pi.(i) *. (1. -. (m.out_rate.(i) /. lambda)) in
          next.(i) <- next.(i) +. stay;
          for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
            let j = m.col.(k) in
            next.(j) <- next.(j) +. (pi.(i) *. m.rate.(k) /. lambda)
          done
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
    (match method_ with
    | Auto -> assert false
    | Power -> power ()
    | Gauss_seidel ->
      (* Balance-equation Gauss–Seidel on the transposed (incoming) matrix:
         pi_j <- (sum_{i<>j} pi_i q_ij) / q_j, sweeping states in id order
         and consuming updated values immediately. Only selected when the
         chain is strongly connected, so every q_j is strictly positive and
         the fixed point is the unique stationary distribution — the same
         limit power iteration reaches, in far fewer sweeps on the stiff
         chains the exact LoPC machine produces. Each sweep renormalizes
         and convergence is the same scaled residual as the power path. *)
      while (not !converged) && !iter < max_iter do
        Lopc_robust.Budget.check_exn budget;
        incr iter;
        for j = 0 to n - 1 do
          let q_j = m.out_rate.(j) in
          if q_j > 0. then begin
            let inflow = ref 0. in
            for k = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
              inflow := !inflow +. (pi.(c.src.(k)) *. c.in_rate.(k))
            done;
            pi.(j) <- !inflow /. q_j
          end
        done;
        normalize pi;
        let r = residual m c ~lambda pi in
        last_diff := r;
        if r <= tol then converged := true
        else if not (Float.is_finite r) then begin
          (* Defensive: a sweep went non-finite (pathological rate
             spread). Restart on the unconditionally safe power path,
             keeping the fuel and iteration budgets already spent. *)
          Array.fill pi 0 n (1. /. Float.of_int n);
          power ()
        end
      done);
    let sol = { state_of_id; pi } in
    if !converged then (Some sol, Converged { iters = !iter })
    else (Some sol, Not_converged { iters = !iter; diff = !last_diff })
  with
  | Lopc_robust.Budget.Stop reason -> (None, Exhausted { reason })
  | State_space_too_large max_states -> (None, Too_large { max_states })

let fold t ~init ~f =
  let acc = ref init in
  Array.iteri (fun i s -> acc := f !acc s t.pi.(i)) t.state_of_id;
  !acc
