(* Tests for lopc_markov: the generic CTMC solver against textbook chains
   and the exact LoPC machine against simulator and model. *)

module Ctmc = Lopc_markov.Ctmc
module EM = Lopc_markov.Exact_machine
module D = Lopc_dist.Distribution
module Spec = Lopc_activemsg.Spec
module Machine = Lopc_activemsg.Machine
module Metrics = Lopc_activemsg.Metrics

let feq tol = Alcotest.(check (float tol))

(* Two-state chain: 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a)/(a+b). *)
let test_ctmc_two_state () =
  let sol =
    Harness.ctmc_solve ~initial:0
      ~transitions:(function 0 -> [ (1, 2.) ] | _ -> [ (0, 6.) ])
      ()
  in
  Alcotest.(check int) "two states" 2 (Harness.ctmc_states sol);
  feq 1e-9 "pi0" 0.75 (Harness.probability sol 0);
  feq 1e-9 "pi1" 0.25 (Harness.probability sol 1)

(* M/M/1/K queue: birth rate l, death rate m, capacity K.
   pi_n = rho^n (1-rho)/(1-rho^{K+1}). *)
let test_ctmc_mm1k () =
  let l = 2. and m = 3. and k = 5 in
  let sol =
    Harness.ctmc_solve ~initial:0
      ~transitions:(fun n ->
        (if n < k then [ (n + 1, l) ] else []) @ if n > 0 then [ (n - 1, m) ] else [])
      ()
  in
  let rho = l /. m in
  let norm =
    ((1. -. rho) /. (1. -. (rho ** Float.of_int (k + 1)))
    [@lint.allow
      "unguarded-division division-by-vanishing"
        "closed-form M/M/1/K reference with fixed test parameters l < m, so rho is \
         a constant strictly below 1 and the normalizer is positive"])
  in
  for n = 0 to k do
    feq 1e-9 (Printf.sprintf "pi%d" n)
      ((rho ** Float.of_int n) *. norm)
      (Harness.probability sol n)
  done;
  (* Mean queue via expectation. *)
  let expected_mean =
    List.init (k + 1) (fun n -> Float.of_int n *. (rho ** Float.of_int n) *. norm)
    |> List.fold_left ( +. ) 0.
  in
  feq 1e-9 "mean customers" expected_mean
    (Harness.expectation sol ~f:Float.of_int)

let test_ctmc_budget () =
  (* An infinite chain must hit the state budget. *)
  Alcotest.(check bool) "budget enforced" true
    (match
       Ctmc.solve_status ~max_states:100 ~initial:0 ~transitions:(fun n -> [ (n + 1, 1.) ]) ()
     with
    | None, Ctmc.Too_large { max_states = 100 } -> true
    | _ -> false)

let test_ctmc_invalid_rate () =
  Alcotest.(check bool) "negative rate rejected" true
    (try
       ignore (Ctmc.solve_status ~initial:0 ~transitions:(fun _ -> [ (1, -1.) ]) ());
       false
     with Invalid_argument _ -> true)

let test_exact_machine_small_state_spaces () =
  let r2 = Harness.exact_all_to_all ~p:2 ~w:1000. ~so:200. ~st:40. in
  Alcotest.(check bool) "P=2 compact" true (r2.EM.states < 100);
  let r3 = Harness.exact_all_to_all ~p:3 ~w:1000. ~so:200. ~st:40. in
  Alcotest.(check bool) "P=3 moderate" true (r3.EM.states < 10_000);
  (* More nodes, slightly more contention. *)
  Alcotest.(check bool) "R grows with P" true (r3.EM.cycle_time > r2.EM.cycle_time)

let test_exact_machine_validates_simulator () =
  (* The exact chain and the event-driven simulator describe the same
     machine: agreement well inside Monte-Carlo noise. *)
  let exact = Harness.exact_all_to_all ~p:3 ~w:1000. ~so:200. ~st:40. in
  let spec =
    Spec.all_to_all ~nodes:3 ~work:(D.Exponential 1000.) ~handler:(D.Exponential 200.)
      ~wire:(D.Exponential 40.) ()
  in
  let sim =
    Metrics.mean_response (Machine.run ~spec ~cycles:150_000 ()).Machine.metrics
  in
  let err = Float.abs ((sim -. exact.EM.cycle_time) /. exact.EM.cycle_time) in
  if err > 0.01 then
    Alcotest.failf "simulator %.2f vs exact %.2f (%.2f%%)" sim exact.EM.cycle_time
      (100. *. err)

let test_exact_machine_measures_model_error () =
  (* Against the exact answer the LoPC model must be pessimistic (Bard)
     and within the paper's error envelope. *)
  List.iter
    (fun w ->
      let exact = Harness.exact_all_to_all ~p:4 ~w ~so:200. ~st:40. in
      let params = Lopc.Params.create ~c2:1. ~p:4 ~st:40. ~so:200. () in
      let model = (Lopc.All_to_all.solve params ~w).Lopc.All_to_all.r in
      let err = (model -. exact.EM.cycle_time) /. exact.EM.cycle_time in
      if err < -0.005 || err > 0.09 then
        Alcotest.failf "W=%g: model %.2f vs exact %.2f (%+.2f%%)" w model
          exact.EM.cycle_time (100. *. err))
    [ 1.; 200.; 1000. ]

let test_exact_machine_littles_law () =
  (* Exact X, Qq, Qy and per-node utilizations must satisfy the identities
     the model is built on. *)
  let r = Harness.exact_all_to_all ~p:3 ~w:500. ~so:100. ~st:20. in
  (* Uq + Uy <= 1 (one handler at a time). *)
  Alcotest.(check bool) "processor not oversubscribed" true (r.EM.uq +. r.EM.uy <= 1.);
  (* Utilization = throughput x service (per node, one request and one
     reply per cycle). *)
  feq 1e-6 "Uq = X So" (r.EM.throughput *. 100.) r.EM.uq;
  feq 1e-6 "Uy = X So" (r.EM.throughput *. 100.) r.EM.uy

let test_exact_machine_validation () =
  List.iter
    (fun thunk ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (thunk ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> EM.all_to_all_status ~p:1 ~w:1. ~so:1. ~st:1. ());
      (fun () -> EM.all_to_all_status ~p:0 ~w:1. ~so:1. ~st:1. ());
      (fun () -> EM.all_to_all_status ~p:(-3) ~w:1. ~so:1. ~st:1. ());
      (fun () -> EM.all_to_all_status ~p:min_int ~w:1. ~so:1. ~st:1. ());
      (fun () -> EM.all_to_all_status ~p:2 ~w:0. ~so:1. ~st:1. ());
      (fun () -> EM.all_to_all_status ~p:2 ~w:1. ~so:(-1.) ~st:1. ());
    ]

(* --- differential reference: the seed solver ----------------------------- *)

(* The reachable chain as [Ctmc] explores it: ids in discovery order,
   states expanded in id order, and each row the successors in the order
   [transitions] lists them, duplicates kept and zero rates and
   self-loops dropped. [budget] is charged one unit before each state
   is expanded. Gives the id of each state, and the states and their
   rows in id order. *)
let reference_rows ?budget ~initial ~transitions () =
  let index = Hashtbl.create 64 and frontier = Queue.create () and states = ref [] in
  let id_of s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index s i;
      Queue.push s frontier;
      states := s :: !states;
      i
  in
  ignore (id_of initial);
  let rows = ref [] in
  while not (Queue.is_empty frontier) do
    Lopc_robust.Budget.check_exn budget;
    let s = Queue.pop frontier in
    let i = id_of s in
    let row =
      List.filter_map
        (fun (s', r) ->
          if Float.equal r 0. then None
          else begin
            let j = id_of s' in
            if j = i then None else Some (j, r)
          end)
        (transitions s)
    in
    rows := row :: !rows
  done;
  (index, Array.of_list (List.rev !states), Array.of_list (List.rev !rows))

(* The pre-CSR solver in miniature: list-of-rows generator built by the
   same BFS, and uniformized power iteration with successive-step
   convergence and no renormalization. The qcheck law below pins the
   sparse rewrite to this reference at the %.6g precision the artifact
   tables print, over random chains including absorbing states,
   self-loops and duplicate successors. *)
module Seed_reference = struct
  let solve ?(tol = 1e-12) ?(max_iter = 50_000) ~initial ~transitions () =
    let index, _, rows = reference_rows ~initial ~transitions () in
    let n = Array.length rows in
    let out_rate =
      Array.map (fun row -> List.fold_left (fun a (_, r) -> a +. r) 0. row) rows
    in
    let lambda = 1.01 *. Array.fold_left Float.max 1e-12 out_rate in
    let pi = Array.make n (1. /. Float.of_int n) in
    let next = Array.make n 0. in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      Array.fill next 0 n 0.;
      for i = 0 to n - 1 do
        next.(i) <- next.(i) +. (pi.(i) *. (1. -. (out_rate.(i) /. lambda)));
        List.iter
          (fun (j, rate) -> next.(j) <- next.(j) +. (pi.(i) *. rate /. lambda))
          rows.(i)
      done;
      let diff = ref 0. in
      for i = 0 to n - 1 do
        diff := !diff +. Float.abs (next.(i) -. pi.(i));
        pi.(i) <- next.(i)
      done;
      if !diff <= tol then converged := true
    done;
    (n, fun s -> match Hashtbl.find_opt index s with Some i -> pi.(i) | None -> 0.)
end

(* Gauss–Seidel as the solver first ran it: sweep in place, renormalize,
   then test the new iterate in a residual pass of its own, restarting on
   the power path when that residual is not finite. It explores with
   [reference_rows], takes the incoming moves with sources ascending and
   a source's moves in row order, and uses [Ctmc]'s [lambda]. One unit of
   fuel is charged per expanded state and one per sweep. Strongly
   connected chains only, where
   [Auto] picks Gauss–Seidel: there the reference's iterate, status and
   fuel are what [Ctmc.solve_status] must give bit for bit. *)
module Gs_reference = struct
  let solve ?budget ?(tol = 1e-12) ?(max_iter = 200_000) ~initial ~transitions () =
    let check () = Lopc_robust.Budget.check_exn budget in
    try
      let _, state, rows = reference_rows ?budget ~initial ~transitions () in
      let n = Array.length rows in
      let incoming = Array.make n [] in
      Array.iteri
        (fun i row -> List.iter (fun (j, r) -> incoming.(j) <- (i, r) :: incoming.(j)) row)
        rows;
      let incoming = Array.map List.rev incoming in
      let out_rate = Array.map (List.fold_left (fun a (_, r) -> a +. r) 0.) rows in
      let lambda = 1.01 *. Array.fold_left Float.max 1e-12 out_rate in
      let pi = Array.make n (1. /. Float.of_int n) in
      let normalize () =
        let s = Array.fold_left ( +. ) 0. pi in
        if s > 0. && Float.is_finite s then Array.iteri (fun i x -> pi.(i) <- x /. s) pi
      in
      let inflow j = List.fold_left (fun a (i, r) -> a +. (pi.(i) *. r)) 0. incoming.(j) in
      let residual () =
        let acc = ref 0. in
        for j = 0 to n - 1 do
          acc := !acc +. Float.abs (inflow j -. (pi.(j) *. out_rate.(j)))
        done;
        !acc /. lambda
      in
      let iter = ref 0 and last_diff = ref Float.infinity and converged = ref false in
      let power () =
        let next = Array.make n 0. in
        while (not !converged) && !iter < max_iter do
          check ();
          incr iter;
          for j = 0 to n - 1 do
            let stay = pi.(j) *. (1. -. (out_rate.(j) /. lambda)) in
            let acc, stayed =
              List.fold_left
                (fun (acc, stayed) (i, r) ->
                  let acc = if i > j && not stayed then acc +. stay else acc in
                  (acc +. (pi.(i) *. r /. lambda), stayed || i > j))
                (0., false) incoming.(j)
            in
            next.(j) <- (if stayed then acc else acc +. stay)
          done;
          let diff = ref 0. in
          for i = 0 to n - 1 do
            diff := !diff +. Float.abs (next.(i) -. pi.(i))
          done;
          Array.blit next 0 pi 0 n;
          normalize ();
          last_diff := !diff;
          if !diff <= tol then converged := true
        done
      in
      while (not !converged) && !iter < max_iter do
        check ();
        incr iter;
        for j = 0 to n - 1 do
          if out_rate.(j) > 0. then pi.(j) <- inflow j /. out_rate.(j)
        done;
        normalize ();
        let res = residual () in
        last_diff := res;
        if res <= tol then converged := true
        else if not (Float.is_finite res) then begin
          Array.fill pi 0 n (1. /. Float.of_int n);
          power ()
        end
      done;
      let pi = Some (List.init n (fun i -> (state.(i), pi.(i)))) in
      if !converged then (pi, Ctmc.Converged { iters = !iter })
      else (pi, Ctmc.Not_converged { iters = !iter; diff = !last_diff })
    with Lopc_robust.Budget.Stop reason -> (None, Ctmc.Exhausted { reason })
end

let arb_chain =
  let open QCheck in
  let print (n, rows) =
    Printf.sprintf "n=%d; %s" n
      (String.concat " | "
         (List.mapi
            (fun i row ->
              Printf.sprintf "%d:[%s]" i
                (String.concat ";"
                   (List.map (fun (j, r) -> Printf.sprintf "%d@%g" j r) row)))
            rows))
  in
  let gen =
    let open Gen in
    int_range 2 10 >>= fun n ->
    list_size (return n)
      (frequency
         [
           (1, return []) (* absorbing *);
           ( 5,
             list_size (int_range 1 4)
               (pair (int_range 0 (n - 1)) (oneofl [ 0.5; 1.; 2.5; 7.; 50. ])) );
         ])
    >>= fun rows -> return (n, rows)
  in
  make ~print gen

(* The sparse solver renormalizes every sweep and the seed never did, so
   the two stop on slightly different iterates. Two kinds of value then
   print differently at %.6g although the solvers agree:
   - a transient state's leftover mass: when the l1 step falls below
     tol = 1e-12 it can still hold tol · lambda / (its exit rate), about
     4e-10 with this generator's rates (0.5 to 4 × 50), so below [1e-8]
     both count as zero;
   - a value on a rounding boundary (an absorbing split of exactly
     0.1640625), where a 1e-13 difference flips the last digit, so values
     within a relative 1e-9 count as equal. *)
let sparse_matches_seed (n, rows) =
  let transitions s = if s < n then List.nth rows s else [] in
  let ref_n, ref_prob = Seed_reference.solve ~initial:0 ~transitions () in
  match
    Ctmc.solve_status ~iteration:Ctmc.Power ~max_iter:50_000 ~initial:0 ~transitions ()
  with
  | Some sol, _ ->
    Harness.ctmc_states sol = ref_n
    && List.for_all
         (fun s ->
           let a = ref_prob s and b = Harness.probability sol s in
           (a <= 1e-8 && b <= 1e-8)
           || Float.abs (a -. b) <= 1e-9 *. Float.max a b
           || String.equal (Printf.sprintf "%.6g" a) (Printf.sprintf "%.6g" b))
         (List.init n Fun.id)
  | None, _ -> false

let prop_sparse_matches_seed =
  QCheck.Test.make ~name:"ctmc: sparse power matches seed solver at %.6g" ~count:150
    arb_chain sparse_matches_seed

(* Chains the property drew that the two solvers printed differently at
   %.6g: with QCHECK_SEED=983748653 transient state 0 ends at 8.2e-268 in
   the seed solver, with QCHECK_SEED=672177080 at 4.040e-11 against
   4.017e-11, and the third chain splits its absorption 0.8359375 /
   0.1640625, printed as 0.164062 and 0.164063. *)
let test_ctmc_transient_vanishing_mass () =
  List.iter
    (fun chain ->
      Alcotest.(check bool) "matches seed solver" true (sparse_matches_seed chain))
    [
      ( 5,
        [
          [ (4, 50.) ];
          [ (3, 0.5); (3, 1.); (1, 2.5) ];
          [ (3, 0.5); (1, 1.); (2, 7.) ];
          [ (4, 0.5); (4, 50.); (4, 50.) ];
          [ (1, 50.); (2, 50.); (1, 1.); (2, 50.) ];
        ] );
      ( 5,
        [
          [ (3, 0.5); (4, 1.) ];
          [ (4, 7.); (0, 0.5); (4, 50.); (2, 7.) ];
          [ (2, 2.5); (3, 50.) ];
          [ (2, 1.); (2, 7.) ];
          [ (4, 50.); (1, 2.5); (0, 1.) ];
        ] );
      ( 8,
        [
          [ (4, 0.5); (7, 0.5) ];
          [ (2, 7.) ];
          [ (3, 0.5); (4, 2.5); (5, 7.); (2, 7.) ];
          [];
          [ (4, 1.); (1, 0.5) ];
          [ (1, 2.5); (1, 50.) ];
          [];
          [ (4, 7.); (5, 2.5); (6, 2.5); (7, 0.5) ];
        ] );
    ]

(* Ring plus random chords: strongly connected by construction, so Auto
   picks Gauss–Seidel and both methods must land on the same (unique)
   stationary distribution. *)
let arb_irreducible =
  let open QCheck in
  let print (n, ring, extra) =
    Printf.sprintf "n=%d ring=[%s] extra=[%s]" n
      (String.concat ";" (List.map (Printf.sprintf "%g") ring))
      (String.concat ";"
         (List.map (fun (i, j, r) -> Printf.sprintf "%d->%d@%g" i j r) extra))
  in
  let gen =
    let open Gen in
    int_range 2 8 >>= fun n ->
    list_size (return n) (oneofl [ 0.3; 1.; 4.; 20. ]) >>= fun ring ->
    list_size (int_range 0 (2 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (oneofl [ 0.7; 2.; 9. ]))
    >>= fun extra -> return (n, ring, extra)
  in
  make ~print gen

let prop_gs_matches_power =
  QCheck.Test.make ~name:"ctmc: gauss-seidel agrees with power on irreducible chains"
    ~count:100 arb_irreducible
    (fun (n, ring, extra) ->
      let transitions s =
        ((s + 1) mod n, List.nth ring s)
        :: List.filter_map
             (fun (i, j, r) -> if i = s && j <> s then Some (j, r) else None)
             extra
      in
      let solve it =
        match
          Ctmc.solve_status ~iteration:it ~max_iter:100_000 ~initial:0 ~transitions
            ()
        with
        | Some sol, Ctmc.Converged _ -> Some sol
        | _ -> None
      in
      match (solve Ctmc.Power, solve Ctmc.Gauss_seidel) with
      | Some a, Some b ->
        List.for_all
          (fun s ->
            let pa = Harness.probability a s and pb = Harness.probability b s in
            Float.abs (pa -. pb) <= 1e-8 +. (1e-6 *. Float.max pa pb))
          (List.init n Fun.id)
      | _ -> false)

(* Regression for the renormalization bugfix: on a stiff cycle the power
   iterate must remain a probability vector even when it cannot converge
   within the sweep budget (historically [sum pi] drifted freely and the
   reported diff was the raw successive step, not a residual). *)
let test_ctmc_stiff_sum_pi () =
  let transitions = function
    | 0 -> [ (1, 1e6) ]
    | 1 -> [ (2, 1.) ]
    | _ -> [ (0, 1e-3) ]
  in
  (match
     Ctmc.solve_status ~iteration:Ctmc.Power ~max_iter:2_000 ~initial:0
       ~transitions ()
   with
  | Some sol, Ctmc.Not_converged { diff; _ } ->
    Alcotest.(check bool) "residual above tol" true (diff > 1e-12);
    Alcotest.(check bool) "sum pi = 1 within 1e-12" true
      (Float.abs (Harness.sum_pi sol -. 1.) <= 1e-12)
  | _, st -> Alcotest.failf "unexpected power status: %s" (Harness.ctmc_status_to_string st));
  match Ctmc.solve_status ~initial:0 ~transitions () with
  | Some sol, Ctmc.Converged _ ->
    Alcotest.(check bool) "sum pi after convergence" true
      (Float.abs (Harness.sum_pi sol -. 1.) <= 1e-12);
    (* Cycle balance: pi_i proportional to 1 / exit rate. *)
    let z = 1e-6 +. 1. +. 1e3 in
    feq 1e-9 "pi0" (1e-6 /. z) (Harness.probability sol 0);
    feq 1e-9 "pi1" (1. /. z) (Harness.probability sol 1);
    feq 1e-9 "pi2" (1e3 /. z) (Harness.probability sol 2)
  | _, st -> Alcotest.failf "unexpected auto status: %s" (Harness.ctmc_status_to_string st)

(* --- differential reference: the list-based exact machine ----------------- *)

(* The exact machine as it was first written: a state is every node's
   phase plus every FIFO's content as lists, successors are consed in
   generation order, and every state is explored on its own. It is the
   unlumped reference: [Exact_machine] packs states into one int and
   explores only node-permutation orbits, and the qcheck law below pins
   its state count and its five aggregates to this chain. *)
module List_machine = struct
  type phase =
    | Working
    | Req_wire of int  (* request in flight toward this destination *)
    | Req_at of int    (* request in the destination's FIFO *)
    | Rep_wire         (* reply in flight home *)
    | Rep_home         (* reply in the home FIFO *)

  type item = Req of int (* owner *) | Rep

  type state = { phases : phase list; queues : item list list }

  let nth = List.nth

  let set_nth lst i v = List.mapi (fun j x -> if j = i then v else x) lst

  let append_nth lst i v = List.mapi (fun j x -> if j = i then x @ [ v ] else x) lst

  let pop_nth lst i =
    List.mapi (fun j x -> if j = i then match x with [] -> [] | _ :: t -> t else x) lst

  let model ~p ~w ~so ~st =
    let mu_w = 1. /. w and mu_so = 1. /. so and mu_st = 1. /. st in
    let initial =
      { phases = List.init p (fun _ -> Working); queues = List.init p (fun _ -> []) }
    in
    let transitions s =
      let moves = ref [] in
      let add s' rate = moves := (s', rate) :: !moves in
      List.iteri
        (fun i phase ->
          match phase with
          | Working ->
            if nth s.queues i = [] then
              for d = 0 to p - 1 do
                if d <> i then
                  add
                    { s with phases = set_nth s.phases i (Req_wire d) }
                    (mu_w /. Float.of_int (p - 1))
              done
          | Req_wire d ->
            add
              {
                phases = set_nth s.phases i (Req_at d);
                queues = append_nth s.queues d (Req i);
              }
              mu_st
          | Req_at _ -> ()
          | Rep_wire ->
            add
              { phases = set_nth s.phases i Rep_home; queues = append_nth s.queues i Rep }
              mu_st
          | Rep_home -> ())
        s.phases;
      List.iteri
        (fun k queue ->
          match queue with
          | [] -> ()
          | Req owner :: _ ->
            add
              { phases = set_nth s.phases owner Rep_wire; queues = pop_nth s.queues k }
              mu_so
          | Rep :: _ ->
            add { phases = set_nth s.phases k Working; queues = pop_nth s.queues k } mu_so)
        s.queues;
      !moves
    in
    (initial, transitions)

  let all_to_all ~p ~w ~so ~st =
    let initial, transitions = model ~p ~w ~so ~st in
    let sol = Harness.ctmc_solve ~initial ~transitions () in
    let head_is queue pred = match queue with h :: _ -> pred h | [] -> false in
    let is_rep = function Rep -> true | Req _ -> false in
    let is_req = function Req _ -> true | Rep -> false in
    let indicator pred s = if head_is (nth s.queues 0) pred then 1. else 0. in
    let count pred s = Float.of_int (List.length (List.filter pred (nth s.queues 0))) in
    let throughput = 1. /. so *. Harness.expectation sol ~f:(indicator is_rep) in
    {
      EM.states = Harness.ctmc_states sol;
      cycle_time = 1. /. throughput;
      throughput;
      qq = Harness.expectation sol ~f:(count is_req);
      qy = Harness.expectation sol ~f:(count is_rep);
      uq = Harness.expectation sol ~f:(indicator is_req);
      uy = Harness.expectation sol ~f:(indicator is_rep);
    }
end

let arb_machine =
  let open QCheck in
  let log_uniform lo hi = Gen.map Float.exp (Gen.float_range (Float.log lo) (Float.log hi)) in
  make
    ~print:(fun (p, w, so, st) -> Printf.sprintf "p=%d w=%h so=%h st=%h" p w so st)
    Gen.(
      quad
        (frequency [ (3, return 2); (3, return 3); (1, return 4) ])
        (log_uniform 1. 2000.) (log_uniform 10. 400.) (log_uniform 1. 100.))

(* Lumping law. The orbit chain sums rates in a different order and
   averages over all nodes where the reference reads node 0, so the two
   agree to solver tolerance, not bit for bit: the unlumped state count
   must be exact, and R, Qq, Qy, Uq and Uy must agree to 1e-9 relative. *)
let prop_packed_matches_lists =
  QCheck.Test.make ~name:"exact machine: packed states match the list machine"
    ~count:12 arb_machine
    (fun (p, w, so, st) ->
      let a = Harness.exact_all_to_all ~p ~w ~so ~st
      and b = List_machine.all_to_all ~p ~w ~so ~st in
      let close x y = Float.abs (x -. y) <= 1e-9 *. Float.abs y in
      a.EM.states = b.EM.states
      && close a.cycle_time b.cycle_time
      && close a.qq b.qq && close a.qy b.qy && close a.uq b.uq && close a.uy b.uy)

(* Past [max_nodes] the key would overflow: the solve reports [Too_large]
   without exploring, and [p] itself never enters the arithmetic (so
   [max_int] cannot overflow). *)
let test_exact_machine_hostile_p () =
  List.iter
    (fun p ->
      match EM.all_to_all_status ~p ~w:1. ~so:1. ~st:1. () with
      | None, Ctmc.Too_large { max_states = 2_000_000 } -> ()
      | _, st ->
        Alcotest.failf "p=%d: expected Too_large, got %s" p (Harness.ctmc_status_to_string st))
    [ EM.max_nodes + 1; max_int ];
  (* At the bound itself the key still fits: exploration runs until the
     state budget stops it. *)
  match EM.all_to_all_status ~max_states:1000 ~p:EM.max_nodes ~w:1. ~so:1. ~st:1. () with
  | None, Ctmc.Too_large { max_states = 1000 } -> ()
  | _, st -> Alcotest.failf "p=max_nodes: got %s" (Harness.ctmc_status_to_string st)

(* Canonical-form law: the branch and bound over places finds the flat
   scan's smallest key and stabiliser size. Digits lean on working nodes
   and requests at position 0, so that stabilisers larger than one and
   pinned destinations are common; P = 7 and 8 are rare, because the scan
   builds all 40 320 relabellings per key at P = 8. *)
let arb_key =
  let open QCheck in
  make
    ~print:(fun (p, key) -> Printf.sprintf "p=%d key=%d" p key)
    Gen.(
      let* p = frequency [ (9, int_range 2 6); (1, int_range 7 EM.max_nodes) ] in
      let base = ((2 * p) + 3) * p in
      let digit =
        frequency
          [
            (2, return 0);
            (2, map (fun c -> c * p) (int_range 1 (2 * p)));
            (3, int_bound (base - 1));
          ]
      in
      let+ digits = list_repeat p digit in
      (p, List.fold_right (fun digit acc -> (acc * base) + digit) digits 0))

let prop_canonical_matches_flat_scan =
  QCheck.Test.make ~name:"exact machine: branch and bound matches the flat scan" ~count:600
    arb_key
    (fun (p, key) -> EM.canonical (EM.machine p) key = Harness.flat_canonical ~p key)

(* Time scaling. Multiplying W, So and St by a power of two divides every
   rate by it exactly, so the stationary distribution is bit-equal: the
   state count, Qq, Qy, Uq and Uy do not move, R scales by exactly k and
   X by exactly 1/k. *)
let prop_exact_time_scaling =
  QCheck.Test.make ~name:"exact machine: scaling W, So and St by k scales R by k" ~count:40
    QCheck.(pair arb_machine (make ~print:string_of_float Gen.(oneofl [ 2.; 4.; 0.5 ])))
    (fun ((p, w, so, st), k) ->
      let a = Harness.exact_all_to_all ~p ~w ~so ~st
      and b = Harness.exact_all_to_all ~p ~w:(k *. w) ~so:(k *. so) ~st:(k *. st) in
      a.EM.states = b.EM.states
      && Float.equal a.qq b.qq && Float.equal a.qy b.qy
      && Float.equal a.uq b.uq && Float.equal a.uy b.uy
      && Float.equal (k *. a.cycle_time) b.cycle_time
      && Float.equal (a.throughput /. k) b.throughput)

let prop_exact_monotone_in_w =
  QCheck.Test.make ~name:"exact machine: R non-decreasing in W" ~count:40
    QCheck.(pair arb_machine (float_range 1. 4.))
    (fun ((p, w, so, st), g) ->
      (Harness.exact_all_to_all ~p ~w ~so ~st).EM.cycle_time
      <= (Harness.exact_all_to_all ~p ~w:(g *. w) ~so ~st).EM.cycle_time)

(* Monotonicity in So (ROADMAP item 4): a longer handler cannot shorten
   the cycle. The chain is solved to a tolerance, so a step that barely
   moves R is allowed a relative 1e-9 below. *)
let prop_exact_monotone_in_so =
  QCheck.Test.make ~name:"exact machine: R non-decreasing in So" ~count:20
    QCheck.(pair arb_machine (float_range 1. 4.))
    (fun ((p, w, so, st), g) ->
      let r so = (Harness.exact_all_to_all ~p ~w ~so ~st).EM.cycle_time in
      let before = r so and after = r (g *. so) in
      before <= after *. (1. +. 1e-9)
      || QCheck.Test.fail_reportf "R fell from %.17g to %.17g" before after)

(* R is not monotone in P. Under heavy load (W well below So) one more
   node shortens the cycle: at W = 10, So = 400, St = 1 the chain gives
   R = 1583.0, 1467.3 and 1453.1 at P = 2, 3 and 4. The simulator agrees
   (exponential W, So and St, five seeds of 400,000 cycles each: 1582 to
   1586, 1465 to 1469, 1452 to 1454), so this is the machine's behaviour
   and not a solver error. 131 of 400 random points of [arb_machine] fall
   from P = 3 to P = 4, by up to 1 %; the LoPC model, in contrast, is
   non-decreasing in P (the [lopc] suite's monotonicity law). *)
let test_exact_falls_in_p_under_heavy_load () =
  let r p = (Harness.exact_all_to_all ~p ~w:10. ~so:400. ~st:1.).EM.cycle_time in
  let r2 = r 2 and r3 = r 3 and r4 = r 4 in
  if not (r2 > r3 && r3 > r4 *. 1.005) then
    Alcotest.failf "expected R to fall with P: %.4f, %.4f, %.4f at P = 2, 3, 4" r2 r3 r4

(* --- one exploration per P: cold and warm solves -------------------------- *)

(* A point's solve, and what it reports: printed with [%h], so two
   outcomes print the same only when every float is bit-equal. *)
type outcome = {
  status : string;
  spent : int option;  (* fuel spent, when the solve had a budget *)
  bits : (int * float list) option;  (* states and R, Qq, Qy, Uq, Uy *)
}

let solve_point ?fuel ?max_states (p, w, so, st) =
  let budget = Option.map (fun fuel -> Lopc_robust.Budget.create ~fuel ()) fuel in
  let res, status = EM.all_to_all_status ?budget ?max_states ~p ~w ~so ~st () in
  {
    status = Harness.ctmc_status_to_string status;
    spent =
      Option.map
        (fun b -> Option.get fuel - Option.get (Lopc_robust.Budget.remaining b))
        budget;
    bits =
      Option.map
        (fun (r : EM.result) -> (r.states, [ r.cycle_time; r.qq; r.qy; r.uq; r.uy ]))
        res;
  }

let show_outcome o =
  Printf.sprintf "%s, spent %s, %s" o.status
    (match o.spent with Some n -> string_of_int n | None -> "-")
    (match o.bits with
    | Some (states, xs) ->
      Printf.sprintf "%d states [%s]" states
        (String.concat "; " (List.map (Printf.sprintf "%h") xs))
    | None -> "no result")

let check_outcome label expected got =
  Alcotest.(check string) label (show_outcome expected) (show_outcome got)

let solved states iters xs =
  {
    status = Harness.ctmc_status_to_string (Ctmc.Converged { iters });
    spent = None;
    bits = Some (states, xs);
  }

(* Recorded with [%h] from the solver as it was before a P's orbit graph
   was kept across solves, when every solve explored its chain afresh. *)
let pinned =
  [
    ( (2, 1., 200., 40.),
      solved 27 29
        [ 0x1.77a50595ea2bap+9; 0x1.9d822cfa50aa8p-2; 0x1.667b08866c566p-2;
          0x1.10991b9078cd2p-2; 0x1.10991b8f186a8p-2 ] );
    ( (2, 200., 50., 7.5),
      solved 27 9
        [ 0x1.7448fbffe5c8ap+8; 0x1.4469634f6bffep-3; 0x1.1d6122082e026p-3;
          0x1.130eda318bfcap-3; 0x1.130eda31a2032p-3 ] );
    ( (2, 1000., 300., 90.),
      solved 27 12
        [ 0x1.08018accd744ap+11; 0x1.5955ddd0e2ab7p-3; 0x1.36ca5ae9a77eap-3;
          0x1.22e707267e663p-3; 0x1.22e7072676928p-3 ] );
    ( (3, 1., 200., 40.),
      solved 412 20
        [ 0x1.7e35195407066p+9; 0x1.bf9d1f061b687p-2; 0x1.4ddfd5f1741c8p-2;
          0x1.0bead7b4c4f8p-2; 0x1.0bead7b496353p-2 ] );
    ( (3, 200., 50., 7.5),
      solved 412 12
        [ 0x1.75b88c1eabf7ap+8; 0x1.5704ee1ef649cp-3; 0x1.246f35e846abdp-3;
          0x1.12005396e0969p-3; 0x1.12005396eea3fp-3 ] );
    ( (3, 1000., 300., 90.),
      solved 412 13
        [ 0x1.099451d24a8fp+11; 0x1.6e9bd827b76bp-3; 0x1.3b4209fcd61a7p-3;
          0x1.212dd875a850bp-3; 0x1.212dd875ab9eap-3 ] );
    ( (4, 1., 200., 40.),
      solved 8865 23
        [ 0x1.7f07b8ef164p+9; 0x1.c98a1ad659f06p-2; 0x1.4a0283a0be358p-2;
          0x1.0b5784ab7cf7ep-2; 0x1.0b5784aa4d913p-2 ] );
    ( (4, 200., 50., 7.5),
      solved 8865 16
        [ 0x1.762a50dd144b4p+8; 0x1.5d1cdf804b85p-3; 0x1.26a7df5bf853fp-3;
          0x1.11ad0389a3a51p-3; 0x1.11ad038996c55p-3 ] );
    ( (4, 1000., 300., 90.),
      solved 8865 19
        [ 0x1.0a086f58d7fb2p+11; 0x1.75919b88c91d9p-3; 0x1.3ccac95036ffcp-3;
          0x1.20afa0abf4e4ep-3; 0x1.20afa0abecc85p-3 ] );
    ( (5, 1., 200., 40.),
      solved 246_096 31
        [ 0x1.7f5b81160e044p+9; 0x1.ce363113b4ccdp-2; 0x1.48a1e286536a3p-2;
          0x1.0b1d175e269aep-2; 0x1.0b1d175f98796p-2 ] );
    ( (5, 200., 50., 7.5),
      solved 246_096 20
        [ 0x1.76621bff5c659p+8; 0x1.6020e7803384cp-3; 0x1.27bc89a1d0a9bp-3;
          0x1.11843a8082cbp-3; 0x1.11843a80908d9p-3 ] );
    ( (5, 1000., 300., 90.),
      solved 246_096 23
        [ 0x1.0a4018dccfd07p+11; 0x1.7901a6e0e6c8p-3; 0x1.3d8ebbd77f69bp-3;
          0x1.2073466a9421ap-3; 0x1.2073466a9f4cap-3 ] );
  ]

(* Budgeted points, as (fuel, max_states, point) and the outcome pinned
   from the same build. P = 5's 2 422 orbits overrun 1 000 units of fuel
   in exploration; the cascade's cap of 2 000 states refuses P = 4's
   8 865; and 2 500 units cover P = 5's exploration and its 20 sweeps.
   No earlier test in this suite solves P = 5, so the first point stops
   P = 5's first exploration in this process, and the P = 5 solves after
   it fail if a stopped exploration left a partial chain behind. *)
let budgeted =
  [
    ( (1000, 2_000_000, (5, 200., 50., 7.5)),
      { status = "fuel exhausted (budget 1000)"; spent = Some 1000; bits = None } );
    ( (400_000, 2000, (4, 200., 50., 7.5)),
      { status = "state space exceeds 2000 states"; spent = Some 104; bits = None } );
    ( (2500, 2_000_000, (5, 200., 50., 7.5)),
      { (List.assoc (5, 200., 50., 7.5) pinned) with spent = Some 2442 } );
  ]

(* Every point solved twice: the first solve of a P may explore its
   chain, the second finds it published, and both report the same bits,
   status and fuel. *)
let test_exact_cold_and_warm_pinned () =
  List.iter
    (fun ((fuel, max_states, ((p, w, _, _) as point)), expected) ->
      for solve = 1 to 2 do
        check_outcome
          (Printf.sprintf "P=%d W=%g fuel %d cap %d, solve %d" p w fuel max_states solve)
          expected
          (solve_point ~fuel ~max_states point)
      done)
    budgeted;
  List.iter
    (fun (((p, w, _, _) as point), expected) ->
      for solve = 1 to 2 do
        check_outcome (Printf.sprintf "P=%d W=%g, solve %d" p w solve) expected (solve_point point)
      done)
    pinned

(* P = 6 (8 365 651 states) is solved nowhere else, so its two points
   start on the pool's two domains with no published chain: both may
   explore it at once, and the chain of only one of them is kept. Pinned
   from the same build as [pinned], with the cap raised past the
   default's 2 000 000 states. *)
let p6 =
  [
    ( (6, 200., 50., 7.5),
      solved 8_365_651 24
        [ 0x1.76833efb6835bp+8; 0x1.61ed4fd84a85p-3; 0x1.285ff833ff218p-3;
          0x1.116c072777c02p-3; 0x1.116c072777af3p-3 ] );
    ( (6, 1000., 300., 90.),
      solved 8_365_651 27
        [ 0x1.0a60ca38c06b1p+11; 0x1.7b0dcb7604751p-3; 0x1.3e03d5701042bp-3;
          0x1.204fdf918fcaep-3; 0x1.204fdf9189779p-3 ] );
  ]

let test_exact_pool_matches_serial () =
  let points = List.map fst p6 @ List.map fst pinned in
  let solve point = solve_point ~max_states:10_000_000 point in
  let pooled =
    Lopc_repro.Parallel.with_pool ~jobs:2 (fun pool ->
        Lopc_repro.Parallel.run pool (Array.of_list (List.map (fun pt () -> solve pt) points)))
  in
  List.iteri
    (fun i ((p, w, _, _) as point) ->
      check_outcome (Printf.sprintf "P=%d W=%g, pool vs serial" p w) pooled.(i) (solve point))
    points;
  List.iteri
    (fun i ((p, w, _, _), expected) ->
      check_outcome (Printf.sprintf "P=%d W=%g, pinned" p w) expected pooled.(i))
    p6

(* --- one exploration, several pricings ------------------------------------ *)

(* A chain explored once and solved under two rate maps gives, bit for
   bit, what two fresh [solve_status] calls give on the priced
   transitions: the same states in the same order, every probability and
   the status. The generator's rates are all positive, so the two
   explorations see the same graph. *)
let prop_explore_once_solve_twice =
  QCheck.Test.make ~name:"ctmc: one exploration under two pricings matches solve_status"
    ~count:150 arb_chain
    (fun (n, rows) ->
      let transitions s = if s < n then List.nth rows s else [] in
      let show (sol, status) =
        Harness.ctmc_status_to_string status
        ^
        match sol with
        | None -> ""
        | Some sol -> Ctmc.fold sol ~init:"" ~f:(fun acc s pi -> Printf.sprintf "%s %d:%h" acc s pi)
      in
      match Ctmc.explore ~initial:0 ~transitions () with
      | Error _ -> false
      | Ok graph ->
        List.for_all
          (fun price ->
            let priced s = List.map (fun (s', r) -> (s', price r)) (transitions s) in
            String.equal
              (show (Ctmc.solve ~max_iter:50_000 graph ~price))
              (show (Ctmc.solve_status ~max_iter:50_000 ~initial:0 ~transitions:priced ())))
          [ Fun.id; (fun r -> 1. /. r) ])

(* The graph keeps every labelled move, so [solve] refuses a label that
   prices to zero as well as a negative or non-finite one. *)
let test_ctmc_solve_refuses_bad_price () =
  match Ctmc.explore ~initial:0 ~transitions:(function 0 -> [ (1, `Out) ] | _ -> [ (0, `Back) ]) () with
  | Error status -> Alcotest.failf "explore: %s" (Harness.ctmc_status_to_string status)
  | Ok graph ->
    List.iter
      (fun (name, bad) ->
        Alcotest.(check bool) name true
          (try
             ignore (Ctmc.solve graph ~price:(function `Out -> 1. | `Back -> bad));
             false
           with Invalid_argument _ -> true))
      [ ("zero", 0.); ("negative", -1.); ("infinite", Float.infinity); ("nan", Float.nan) ]

(* --- warm replay at the edges --------------------------------------------- *)

(* (P, fuel, cap) at (W, So, St) = (200, 50, 7.5), with the status and
   fuel spent recorded from the build whose published chain was a table
   of rows, each point in a fresh process. P = 3, 4 and 5 have 80, 438
   and 2 422 orbits and converge in 12, 16 and 20 sweeps. Fuel one short
   of the orbits stops the last orbit's exploration; the orbit count
   stops the first sweep; one more unit, the second; orbits plus sweeps
   minus one, the last; orbits plus sweeps converges. A cap of 0 refuses
   the start orbit before any fuel is spent. A cap of 1 is refused at
   orbit 0 by [Ctmc]'s count of discovered orbits (two discovered, one
   state expanded); at P <= 5 no other cap is refused by that count
   before the expanded states refuse it. The third cap is refused by the
   expanded states. *)
let replay_edges =
  [
    ((3, 79, 2_000_000), ("fuel exhausted (budget 79)", 79));
    ((3, 80, 2_000_000), ("fuel exhausted (budget 80)", 80));
    ((3, 81, 2_000_000), ("fuel exhausted (budget 81)", 81));
    ((3, 91, 2_000_000), ("fuel exhausted (budget 91)", 91));
    ((3, 92, 2_000_000), ("converged in 12 iterations", 92));
    ((3, 1_000_000, 0), ("state space exceeds 0 states", 0));
    ((3, 1_000_000, 1), ("state space exceeds 1 states", 1));
    ((3, 1_000_000, 300), ("state space exceeds 300 states", 58));
    ((4, 437, 2_000_000), ("fuel exhausted (budget 437)", 437));
    ((4, 438, 2_000_000), ("fuel exhausted (budget 438)", 438));
    ((4, 439, 2_000_000), ("fuel exhausted (budget 439)", 439));
    ((4, 453, 2_000_000), ("fuel exhausted (budget 453)", 453));
    ((4, 454, 2_000_000), ("converged in 16 iterations", 454));
    ((4, 1_000_000, 0), ("state space exceeds 0 states", 0));
    ((4, 1_000_000, 1), ("state space exceeds 1 states", 1));
    ((4, 1_000_000, 2000), ("state space exceeds 2000 states", 104));
    ((5, 2421, 2_000_000), ("fuel exhausted (budget 2421)", 2421));
    ((5, 2422, 2_000_000), ("fuel exhausted (budget 2422)", 2422));
    ((5, 2423, 2_000_000), ("fuel exhausted (budget 2423)", 2423));
    ((5, 2441, 2_000_000), ("fuel exhausted (budget 2441)", 2441));
    ((5, 2442, 2_000_000), ("converged in 20 iterations", 2442));
    ((5, 1_000_000, 0), ("state space exceeds 0 states", 0));
    ((5, 1_000_000, 1), ("state space exceeds 1 states", 1));
    ((5, 1_000_000, 100_000), ("state space exceeds 100000 states", 1006));
  ]

(* Every point solved twice, and a converged one must also give
   [pinned]'s bits. In the whole suite every P here is published by
   earlier tests, so both solves replay; run alone, each P's first solve
   explores it. A W whose reciprocal overflows raises [Invalid_argument]
   the same way on both solves. *)
let test_exact_warm_replay_edges () =
  for solve = 1 to 2 do
    Alcotest.(check bool) (Printf.sprintf "w = 5e-324 rejected, solve %d" solve) true
      (try
         ignore (EM.all_to_all_status ~p:2 ~w:5e-324 ~so:50. ~st:7.5 ());
         false
       with Invalid_argument _ -> true)
  done;
  List.iter
    (fun ((p, fuel, max_states), (status, spent)) ->
      let point = (p, 200., 50., 7.5) in
      let solved = List.assoc point pinned in
      let bits = if String.equal status solved.status then solved.bits else None in
      let expected = { status; spent = Some spent; bits } in
      for solve = 1 to 2 do
        check_outcome
          (Printf.sprintf "P=%d fuel %d cap %d, solve %d" p fuel max_states solve)
          expected
          (solve_point ~fuel ~max_states point)
      done)
    replay_edges

(* --- the convergence test inside the next sweep ----------------------------- *)

(* A solve's outcome with every float printed by [%h]: the status
   (including a non-converged residual), the fuel left when there was a
   budget, and each state's probability. *)
let show_run ?budget (pi, status) =
  let status =
    match status with
    | Ctmc.Not_converged { iters; diff } ->
      Printf.sprintf "not converged after %d iterations (l1 residual %h)" iters diff
    | status -> Harness.ctmc_status_to_string status
  in
  let fuel =
    match Option.bind budget Lopc_robust.Budget.remaining with
    | Some f -> Printf.sprintf ", fuel left %d" f
    | None -> ""
  in
  status ^ fuel
  ^ String.concat "" (List.map (fun (s, p) -> Printf.sprintf " %d:%h" s p) (Option.value pi ~default:[]))

let ctmc_run ?budget ?max_iter ~transitions () =
  let sol, status = Ctmc.solve_status ?budget ?max_iter ~initial:0 ~transitions () in
  ( Option.map (fun sol -> List.rev (Ctmc.fold sol ~init:[] ~f:(fun acc s p -> (s, p) :: acc))) sol,
    status )

(* Rings with chords, so strongly connected, whose rates mix moderate
   values with 1e±100 to 1e±300: stiff enough that some Gauss–Seidel
   sweeps go non-finite and restart on the power path. *)
let arb_stiff_irreducible =
  let open QCheck in
  let rate =
    Gen.frequency
      [
        (3, Gen.oneofl [ 0.3; 1.; 4.; 20. ]);
        (2, Gen.oneofl [ 1e-300; 1e-200; 1e-100; 1e100; 1e200; 1e300 ]);
      ]
  in
  let print (n, ring, extra) =
    Printf.sprintf "n=%d ring=[%s] extra=[%s]" n
      (String.concat ";" (List.map (Printf.sprintf "%g") ring))
      (String.concat ";" (List.map (fun (i, j, r) -> Printf.sprintf "%d->%d@%g" i j r) extra))
  in
  make ~print
    Gen.(
      let* n = int_range 2 6 in
      let* ring = list_repeat n rate in
      let+ extra = list_size (int_range 0 (2 * n)) (triple (int_bound (n - 1)) (int_bound (n - 1)) rate) in
      (n, ring, extra))

(* The solver tests each iterate's residual inside the sweep that follows
   it. Against [Gs_reference], which tests it in a pass of its own, every
   probability, the status with its residual and the fuel left must match
   bit for bit, at every sweep cap and at every fuel from the bare
   exploration to 20 sweeps past it: a converged solve's extra sweep is
   discarded and charges nothing. *)
let prop_fused_sweep_matches_reference =
  QCheck.Test.make ~name:"ctmc: convergence tested inside the next sweep matches the reference"
    ~count:300 arb_stiff_irreducible
    (fun (n, ring, extra) ->
      let transitions s =
        ((s + 1) mod n, List.nth ring s)
        :: List.filter_map (fun (i, j, r) -> if i = s && j <> s then Some (j, r) else None) extra
      in
      List.for_all
        (fun max_iter ->
          List.for_all
            (fun extra_fuel ->
              let budget () =
                Option.map (fun f -> Lopc_robust.Budget.create ~fuel:(n + f) ()) extra_fuel
              in
              let b = budget () and b' = budget () in
              let got = show_run ?budget:b (ctmc_run ?budget:b ?max_iter ~transitions ())
              and want =
                show_run ?budget:b'
                  (Gs_reference.solve ?budget:b' ?max_iter ~initial:0 ~transitions ())
              in
              String.equal got want
              || QCheck.Test.fail_reportf "max_iter %s, fuel n + %s:\n  solver    %s\n  reference %s"
                   (Option.fold ~none:"default" ~some:string_of_int max_iter)
                   (Option.fold ~none:"unlimited" ~some:string_of_int extra_fuel)
                   got want)
            [ None; Some 0; Some 1; Some 2; Some 3; Some 5; Some 10; Some 20 ])
        [ Some 0; Some 1; Some 2; Some 3; Some 10; None ])

(* The two-state ring 0 -> 1 at 1e-200, 1 -> 0 at 1e200 sends the first
   Gauss–Seidel sweep to infinity (0.5 · 1e200 / 1e-200), so the solve
   restarts on the power path from the uniform start, keeping the sweep
   it counted and charged. Pinned with [%h] from the solver that tested
   each iterate in a residual pass of its own: uncapped it converges
   after the Gauss–Seidel sweep and 7 power sweeps, spending 2 units of
   fuel on exploration and 8 on sweeps; a cap of 1 sweep stops at the
   restart with the uniform start and a nan residual; a cap of 2 allows
   one power sweep. *)
let test_ctmc_power_restart () =
  let transitions = function 0 -> [ (1, 1e-200) ] | _ -> [ (0, 1e200) ] in
  List.iter
    (fun (max_iter, expected) ->
      let budget = Lopc_robust.Budget.create ~fuel:100 () in
      Alcotest.(check string)
        (Printf.sprintf "max_iter %s" (Option.fold ~none:"default" ~some:string_of_int max_iter))
        expected
        (show_run ~budget (ctmc_run ~budget ?max_iter ~transitions ())))
    [
      (None, "converged in 8 iterations, fuel left 90 0:0x1.fffffffffffd6p-1 1:0x1.500c0e65c7d07p-48");
      (Some 1, "not converged after 1 iterations (l1 residual nan), fuel left 97 0:0x1p-1 1:0x1p-1");
      ( Some 2,
        "not converged after 2 iterations (l1 residual 0x1.faee41e6a7498p-1), fuel left 96 \
         0:0x1.fd7720f353a4cp-1 1:0x1.446f86562d9cp-8" );
    ]

let suite =
  [
    Alcotest.test_case "ctmc: two-state chain" `Quick test_ctmc_two_state;
    Alcotest.test_case "ctmc: M/M/1/K closed form" `Quick test_ctmc_mm1k;
    Alcotest.test_case "ctmc: state budget" `Quick test_ctmc_budget;
    Alcotest.test_case "ctmc: invalid rate" `Quick test_ctmc_invalid_rate;
    Alcotest.test_case "exact machine: state spaces" `Quick test_exact_machine_small_state_spaces;
    Alcotest.test_case "exact machine validates simulator" `Slow test_exact_machine_validates_simulator;
    Alcotest.test_case "exact machine measures model error" `Slow test_exact_machine_measures_model_error;
    Alcotest.test_case "exact machine: utilization identities" `Quick test_exact_machine_littles_law;
    Alcotest.test_case "exact machine: validation" `Quick test_exact_machine_validation;
    Alcotest.test_case "exact machine: hostile p" `Quick test_exact_machine_hostile_p;
    Alcotest.test_case "ctmc: stiff chain keeps sum pi = 1" `Quick
      test_ctmc_stiff_sum_pi;
    Alcotest.test_case "ctmc: transient vanishing mass" `Quick
      test_ctmc_transient_vanishing_mass;
    QCheck_alcotest.to_alcotest prop_sparse_matches_seed;
    QCheck_alcotest.to_alcotest prop_gs_matches_power;
    QCheck_alcotest.to_alcotest
      ~rand:(Harness.fixed_rand 12) prop_packed_matches_lists;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 32) prop_canonical_matches_flat_scan;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 33) prop_exact_time_scaling;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 34) prop_exact_monotone_in_w;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 36) prop_exact_monotone_in_so;
    Alcotest.test_case "exact machine: R falls from P = 3 to P = 4 under heavy load" `Quick
      test_exact_falls_in_p_under_heavy_load;
    Alcotest.test_case "exact machine: cold and warm solves match pinned bits" `Quick
      test_exact_cold_and_warm_pinned;
    Alcotest.test_case "exact machine: pooled solves match serial ones" `Quick
      test_exact_pool_matches_serial;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 37) prop_explore_once_solve_twice;
    Alcotest.test_case "ctmc: solve refuses a zero or non-finite price" `Quick
      test_ctmc_solve_refuses_bad_price;
    Alcotest.test_case "exact machine: warm replay at the budget and cap edges" `Quick
      test_exact_warm_replay_edges;
    QCheck_alcotest.to_alcotest ~rand:(Harness.fixed_rand 38) prop_fused_sweep_matches_reference;
    Alcotest.test_case "ctmc: a non-finite sweep restarts on the power path" `Quick
      test_ctmc_power_restart;
  ]
