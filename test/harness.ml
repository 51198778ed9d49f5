(* Test inputs built on the public library API: generators and drivers
   that only the tests need, so they do not live in lib/. *)

module Rng = Lopc_prng.Rng

(* A private, fixed-seed QCheck state, so property tests draw the same
   inputs on every run. *)
let fixed_rand seed =
  (Random.State.make [| seed |]
  [@lint.allow
    "global-rng"
      "a private, fixed-seed QCheck state: the global stream is untouched and \
       the drawn inputs are the same on every run"])

(* |x - y| within [tol] of the larger magnitude; nan matches nan. *)
let rel_close tol x y =
  Float.equal x y || Float.abs (x -. y) <= tol *. Float.max (Float.abs x) (Float.abs y)

(* Standard normal deviate (Marsaglia polar method), for sample inputs
   with a known shape. *)
let gaussian t =
  let rec polar () =
    let u = Rng.float_range t (-1.) 1. and v = Rng.float_range t (-1.) 1. in
    let s = (u *. u) +. (v *. v) in
    if s >= 1. || Float.equal s 0. then polar ()
    else
      u
      *. sqrt
           (-2. *. log s
           /. s
           [@lint.allow
             "division-by-vanishing"
               "the Float.equal rejection loop excludes s = 0; carving a point out \
                of an interval is beyond the interval domain"])
  in
  polar ()

(* Minor-heap words per iteration of [f ()], which runs [n] iterations.
   Counts are deterministic for a fixed compiler (CI pins OCaml 5.1), so
   allocation budgets can be asserted exactly like any other result. *)
let minor_words_per ~n f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. Float.of_int n

(* Matrix-vector product, to check [Linear.solve] by substitution. *)
let mat_vec a x =
  Array.map
    (fun row ->
      let acc = ref 0. in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      !acc)
    a

(* The monic polynomial with the given real roots, for root-finder inputs
   whose answer is known. *)
let poly_of_roots roots =
  let times_root p r =
    Array.init
      (Array.length p + 1)
      (fun i ->
        (if i > 0 then p.(i - 1) else 0.) -. if i < Array.length p then r *. p.(i) else 0.)
  in
  Lopc_numerics.Polynomial.of_coeffs (Array.fold_left times_root [| 1. |] roots)

let poly_degree (p : Lopc_numerics.Polynomial.t) = Array.length (p :> float array) - 1

module Station = Lopc_mva.Station
module Solution = Lopc_mva.Solution

(* Infinite-server "think" station: the MVA solvers support it, the LoPC
   models build none. *)
let delay_station ~demand =
  match
    Station.validate
      ({ Station.kind = Delay; demand; scv = 1.; servers = 1 }
      [@lint.allow
        "negative-cost" "raw constructor argument: [Station.validate] rejects a bad demand"])
  with
  | Ok s -> s
  | Error reason -> invalid_arg ("delay station: " ^ reason)

(* Little's law over the whole network: [Σ Q_k ≈ population], relative
   tolerance [tol]. *)
let little_consistent ?(tol = 1e-6) ~population (s : Solution.t) =
  let total = Array.fold_left ( +. ) 0. s.queue_length in
  let n = Float.of_int population in
  Float.abs (total -. n) <= tol *. Float.max 1. n

module Amva = Lopc_mva.Amva
module FP = Lopc_numerics.Fixed_point

(* A damped, budgeted fixed-point iteration x <- (1−d)·x + d·F x from
   [x0], until max_i |F x − x|_i <= [tol]·max 1 ‖x‖∞: the reference the
   bracketed model solves are checked against. One unit of fuel per
   step, checked before it. Returns F of the last iterate on
   convergence, otherwise the last iterate, with the status: [Diverged]
   with a [nan] residual when F leaves the finite domain or changes the
   length, and with |F x − x| at the last iterate after [max_iter]
   steps. Raises [Invalid_argument] on a damping outside (0, 1]. *)
let damped_status ?budget ?(damping = 1.) ?(tol = 1e-10) ?(max_iter = 10_000) ~f x0 =
  if damping <= 0. || damping > 1. then invalid_arg "Harness.damped_status: damping";
  let n = Array.length x0 in
  let max_norm_diff a b =
    let m = ref 0. in
    Array.iteri (fun i ai -> m := Float.max !m (Float.abs (ai -. b.(i)))) a;
    !m
  in
  let finite fx = Array.length fx = n && Array.for_all Float.is_finite fx in
  let rec step iter x : float array * FP.status =
    if iter > max_iter then
      let fx = f x in
      let residual = if finite fx then max_norm_diff fx x else Float.nan in
      (x, FP.Diverged { iters = max_iter; residual })
    else
      match Option.bind budget Lopc_robust.Budget.check with
      | Some reason -> (x, FP.Exhausted { iters = iter - 1; reason })
      | None ->
        let fx = f x in
        if not (finite fx) then (x, FP.Diverged { iters = iter; residual = Float.nan })
        else
          let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. x in
          if max_norm_diff fx x <= tol *. scale then (fx, FP.Converged { iters = iter })
          else
            step (iter + 1)
              (Array.mapi (fun i xi -> ((1. -. damping) *. xi) +. (damping *. fx.(i))) x)
  in
  step 1 (Array.copy x0)

(* [damped_status] on one unknown. *)
let damped_scalar_status ?budget ?damping ?tol ?max_iter ~f x0 =
  let value, status =
    damped_status ?budget ?damping ?tol ?max_iter ~f:(fun x -> [| f x.(0) |]) [| x0 |]
  in
  (value.(0), status)

module A = Lopc.All_to_all

(* The all-to-all cycle time by damped iteration of F from the
   contention-free bound, clamped there (damping 1/2, tol 1e-12): the
   method [ablate.solvers] prints against the bracketed solve. *)
let damped_all_to_all ?budget ?execution params ~w =
  let lb = A.lower_bound params ~w in
  let f r = A.fixed_point_map ?execution params ~w (Float.max r lb) in
  let r, status = damped_scalar_status ?budget ~damping:0.5 ~tol:1e-12 ~f lb in
  (Float.max r lb, status)

(* The smallest real root of the §5.3 quartic at or above the
   contention-free bound (within 1e-9 of it), if any. *)
let quartic_root ?execution params ~w =
  let lb = A.lower_bound params ~w in
  Array.fold_left
    (fun acc r ->
      if r >= lb *. (1. -. 1e-9) then Some (Option.fold ~none:r ~some:(Float.min r) acc) else acc)
    None
    (Lopc_numerics.Polynomial.real_roots (A.quartic ?execution params ~w))

(* The per-station damped AMVA loop over queue lengths: one queue per
   station, every sum a fold over the station array, the last iterate's
   saturation read off as [Saturated]. [Amva.solve_status]'s bracketed
   solve on the cycle time must agree with it wherever it converges.
   Inputs must be valid. *)
let amva_reference_solve_status ?budget ?(approximation = Amva.Bard) ?(think_time = 0.)
    ?(tol = 1e-12) ?(max_iter = 100_000) ~(stations : Station.t array) ~population () =
  let k = Array.length stations in
  let n = Float.of_int population in
  let residence_of ~arrival_factor queues x =
    Array.mapi
      (fun i (s : Station.t) ->
        match s.kind with
        | Station.Delay -> s.demand
        | Station.Queueing ->
          let c = Float.of_int s.servers in
          let queue_demand = s.demand /. c in
          let fixed_delay = s.demand *. (c -. 1.) /. c in
          let arrival_queue = arrival_factor *. queues.(i) in
          let correction = (s.scv -. 1.) /. 2. *. (x *. queue_demand) in
          fixed_delay +. (queue_demand *. (1. +. arrival_queue +. correction)))
      stations
  in
  let consistent_throughput ~arrival_factor queues =
    let base = residence_of ~arrival_factor queues 0. in
    let a = think_time +. Array.fold_left ( +. ) 0. base in
    let b =
      Array.fold_left
        (fun acc (s : Station.t) ->
          match s.kind with
          | Station.Delay -> acc
          | Station.Queueing ->
            let d = s.demand /. Float.of_int s.servers in
            acc +. ((s.scv -. 1.) /. 2. *. d *. d))
        0. stations
    in
    if Float.equal b 0. then n /. a
    else begin
      let disc = (a *. a) +. (4. *. n *. b) in
      if disc < 0. then n /. a
      else begin
        let x = ((-.a) +. sqrt disc) /. (2. *. b) in
        if x > 0. then x else n /. a
      end
    end
  in
  if population = 0 then
    ( Some
        {
          Solution.throughput = 0.;
          cycle_time = Float.nan;
          residence = Array.map (fun (s : Station.t) -> s.demand) stations;
          queue_length = Array.make k 0.;
          utilization = Array.make k 0.;
        },
      FP.Converged { iters = 0 } )
  else begin
    let arrival_factor =
      match approximation with Amva.Bard -> 1. | Schweitzer -> (n -. 1.) /. n
    in
    let total_demand = Array.fold_left (fun acc (s : Station.t) -> acc +. s.demand) 0. stations in
    let step queues =
      let x = consistent_throughput ~arrival_factor queues in
      Array.map (fun r -> x *. r) (residence_of ~arrival_factor queues x)
    in
    let q0 =
      Array.map (fun (s : Station.t) -> n *. s.demand /. (think_time +. total_demand)) stations
    in
    let queues, status = damped_status ?budget ~damping:0.5 ~tol ~max_iter ~f:step q0 in
    let x = consistent_throughput ~arrival_factor queues in
    match status with
    | FP.Converged _ ->
      let residence = residence_of ~arrival_factor queues x in
      ( Some
          {
            Solution.throughput = x;
            cycle_time = think_time +. Array.fold_left ( +. ) 0. residence;
            residence;
            queue_length = Array.map (fun r -> x *. r) residence;
            utilization =
              Array.map (fun (s : Station.t) -> x *. s.demand /. Float.of_int s.servers) stations;
          },
        status )
    | FP.Exhausted _ -> (None, status)
    | _ -> (
      (* The first queueing station at the top per-server utilization. *)
      let best = ref None in
      Array.iteri
        (fun i (s : Station.t) ->
          match s.kind with
          | Station.Delay -> ()
          | Station.Queueing -> (
            let u = x *. s.demand /. Float.of_int s.servers in
            match !best with Some (_, u') when u' >= u -> () | _ -> best := Some (i, u)))
        stations;
      match !best with
      | Some (station, utilization) when utilization >= 1. -. 1e-9 ->
        (None, FP.Saturated { station; utilization })
      | Some _ | None -> (None, status))
  end

module Ctmc = Lopc_markov.Ctmc

let ctmc_status_to_string = function
  | Ctmc.Converged { iters } -> Printf.sprintf "converged in %d iterations" iters
  | Not_converged { iters; diff } ->
    Printf.sprintf "not converged after %d iterations (l1 residual %g)" iters diff
  | Exhausted { reason } -> Lopc_robust.Budget.reason_to_string reason
  | Too_large { max_states } -> Printf.sprintf "state space exceeds %d states" max_states

(* [Ctmc.solve_status] for chains a test expects to solve. *)
let ctmc_solve ?iteration ?max_states ~initial ~transitions () =
  match Ctmc.solve_status ?iteration ?max_states ~initial ~transitions () with
  | Some sol, _ -> sol
  | None, status -> failwith ("ctmc: " ^ ctmc_status_to_string status)

(* Reachable states, [Σ π(s)·f(s)], the stationary probability of one
   state ([0.] if unreachable) and the total mass, all through the one
   production accessor. Adding exact zeros keeps [probability]
   bit-identical to a direct lookup. *)
let ctmc_states sol = Ctmc.fold sol ~init:0 ~f:(fun n _ _ -> n + 1)

let expectation sol ~f = Ctmc.fold sol ~init:0. ~f:(fun acc s pi -> acc +. (pi *. f s))

let probability sol s = expectation sol ~f:(fun s' -> if s' = s then 1. else 0.)

let sum_pi sol = expectation sol ~f:(fun _ -> 1.)

(* [Exact_machine.canonical] by exhaustive scan: every one of the [p!]
   relabellings of [key] is built in full, and the smallest key is kept
   with the number of relabellings that reach it. Relabelling [s] moves
   node [i]'s digit to place [s i] and renames the destination [d] inside
   codes [1 + d] and [1 + p + d] to [s d]. *)
let flat_canonical ~p key =
  let base = ((2 * p) + 3) * p in
  let dest = Array.make p (-1) and low = Array.make p 0 in
  let rest = ref key in
  for i = 0 to p - 1 do
    let digit = !rest mod base in
    rest := !rest / base;
    let c = digit / p in
    let d = if c = 0 || c > 2 * p then -1 else if c <= p then c - 1 else c - 1 - p in
    dest.(i) <- d;
    low.(i) <- (if d < 0 then digit else digit - (d * p))
  done;
  let s = Array.make p 0 and used = Array.make p false and at = Array.make p 0 in
  let best = ref max_int and ties = ref 0 in
  let rec relabel i =
    if i = p then begin
      for j = 0 to p - 1 do
        let d = dest.(j) in
        at.(s.(j)) <- (low.(j) + if d < 0 then 0 else s.(d) * p)
      done;
      let k = Array.fold_right (fun digit acc -> (acc * base) + digit) at 0 in
      if k < !best then begin
        best := k;
        ties := 1
      end
      else if k = !best then incr ties
    end
    else
      for place = 0 to p - 1 do
        if not used.(place) then begin
          used.(place) <- true;
          s.(i) <- place;
          relabel (i + 1);
          used.(place) <- false
        end
      done
  in
  relabel 0;
  (!best, !ties)

module Params = Lopc.Params
module G = Lopc.General
module Pattern = Lopc_workloads.Pattern

(* Each model exports one [solve_status]. A test that only wants the
   answer takes it through [FP.get_exn], which raises [FP.Unsolved] on
   any other outcome. *)
let general_solve t = FP.get_exn (G.solve_status t)

let amva_solve ?approximation ?think_time ~stations ~population () =
  FP.get_exn (Amva.solve_status ?approximation ?think_time ~stations ~population ())

let gap_solve ?gap params ~w = FP.get_exn (Lopc.Gap.solve_status ?gap params ~w)

let torus_solve params ~topology ~w = FP.get_exn (Lopc.Torus.solve_status params ~topology ~w)

let windowed_solve ?window params ~w = FP.get_exn (Lopc.Windowed.solve_status ?window params ~w)

let exact_all_to_all ~p ~w ~so ~st =
  match Lopc_markov.Exact_machine.all_to_all_status ~p ~w ~so ~st () with
  | Some r, _ -> r
  | None, status -> Alcotest.failf "exact P=%d: %s" p (ctmc_status_to_string status)

(* The dense per-node form of an Appendix A net: [visits.(k)] is a thread
   at this node's request-handler executions at node [k] per cycle, and a
   pure server ([work = None]) has no row the model reads. [General.t]
   holds classes of interchangeable nodes; [lump] folds a dense net into
   them, and [dense_general_solve_status] solves it node by node. *)
type node_spec = { work : float option; visits : float array }

type dense = { params : Params.t; nodes : node_spec array; protocol_processor : bool }

(* A pattern's dense net, row by row: what [Pattern.to_general]'s closed
   forms are the quotient of. *)
let dense_of_pattern ?(protocol_processor = false) (params : Params.t) ~w pattern =
  let nodes = params.p in
  let row c =
    match (pattern : Pattern.t) with
    | All_to_all | All_to_all_staggered ->
      let v = 1. /. Float.of_int (nodes - 1) in
      Array.init nodes (fun k -> if k = c then 0. else v)
    | Client_server { servers } ->
      let v = 1. /. Float.of_int servers in
      Array.init nodes (fun k -> if k < servers then v else 0.)
    | Hotspot { hot; fraction } ->
      let spread = (1. -. fraction) /. Float.of_int (nodes - 1) in
      Array.init nodes (fun k ->
          let base = if k = c then 0. else spread in
          if k = hot then base +. fraction else base)
    | Multi_hop { hops } ->
      let v = Float.of_int hops /. Float.of_int (nodes - 1) in
      Array.init nodes (fun k -> if k = c then 0. else v)
  in
  let server c = match pattern with Client_server { servers } -> c < servers | _ -> false in
  {
    params;
    protocol_processor;
    nodes =
      Array.init nodes (fun c ->
          if server c then { work = None; visits = Array.make nodes 0. }
          else { work = Some w; visits = row c });
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
   class-i nodes' visits to node k. Each sum adds its terms in sorted
   order, so it depends only on the multiset of terms: nodes that are
   symmetric in exact arithmetic get bit-equal sums. Node order would
   not do: in a hotspot row the hot node's large entry falls before or
   after a cold node's own zero, and the rounding then splits the cold
   nodes into those below and above the hot node. A pure server's row is
   ignored by the model, so it adds nothing. *)
let class_sums t (class_of, classes) =
  let p = Array.length class_of in
  let sum terms = List.fold_left ( +. ) 0. (List.sort Float.compare terms) in
  let threads = List.filter (fun c -> Option.is_some t.nodes.(c).work) (List.init p Fun.id) in
  let members j = List.filter (fun k -> class_of.(k) = j) (List.init p Fun.id) in
  let into =
    Array.init p (fun c ->
        Array.init classes (fun j ->
            if Option.is_none t.nodes.(c).work then 0.
            else sum (List.map (fun k -> t.nodes.(c).visits.(k)) (members j))))
  in
  let from =
    Array.init classes (fun i ->
        let senders = List.filter (fun c -> class_of.(c) = i) threads in
        Array.init p (fun k -> sum (List.map (fun c -> t.nodes.(c).visits.(k)) senders)))
  in
  (into, from)

(* The coarsest equitable partition, by colour refinement from the work
   each node runs: a round splits a class whose members differ, bit for
   bit, in a row sum into some class or a column sum from some class.
   Every round but the last adds a class, so P rounds always suffice.
   Returns the quotient net, classes numbered by smallest member, and
   each node's class. *)
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
  let first = Array.make classes 0 and members = Array.make classes 0 in
  for c = p - 1 downto 0 do
    first.(class_of.(c)) <- c;
    members.(class_of.(c)) <- members.(class_of.(c)) + 1
  done;
  ( {
      G.params = t.params;
      protocol_processor = t.protocol_processor;
      classes =
        Array.mapi
          (fun i c ->
            {
              G.members = members.(i);
              first = c;
              work = t.nodes.(c).work;
              row = into.(c);
              col = Array.map (fun k -> from.(i).(k)) first;
            })
          first;
    },
    class_of )

(* A class solution expanded to one entry per node. *)
let per_node class_of (s : G.solution) =
  let expand a = Array.map (fun i -> a.(i)) class_of in
  {
    s with
    G.cycle_times = expand s.G.cycle_times;
    throughputs = expand s.G.throughputs;
    node_solutions = expand s.G.node_solutions;
  }

(* A dense net written node by node through the public record: every
   node its own class, as any caller of [General] may build it. One
   member makes a class's row and column the node's own visits. *)
let unlumped t =
  {
    G.params = t.params;
    protocol_processor = t.protocol_processor;
    classes =
      Array.mapi
        (fun c spec ->
          { G.members = 1; first = c; work = spec.work; row = spec.visits; col = spec.visits })
        t.nodes;
  }

(* The general model's inputs for the two special patterns, lumped from
   their dense nets, so its solutions can be checked against All_to_all
   and Client_server independently of [Pattern.to_general]'s closed
   forms. *)
let general_all_to_all params ~w = fst (lump (dense_of_pattern params ~w Pattern.All_to_all))

let general_client_server params ~w ~servers =
  fst (lump (dense_of_pattern params ~w (Pattern.Client_server { servers })))

(* Bard's AMVA on the work-pile network: P − Ps customers, think time
   W + 2·St + So, and Ps queueing stations of demand So/Ps, each running
   [threads] handlers at once. [Client_server] is the general model's
   solve of the same network, and the [ablate.multiserver] artifact
   solves it with several threads. *)
let workpile_amva ?(threads = 1) (params : Params.t) ~w ~servers =
  let stations =
    Array.init servers (fun _ ->
        Station.queueing ~scv:params.c2 ~servers:threads
          ~demand:(params.so /. Float.of_int servers) ())
  in
  amva_solve ~approximation:Amva.Bard ~think_time:(w +. (2. *. params.st) +. params.so) ~stations
    ~population:(params.p - servers) ()

module Fixed_point = Lopc_numerics.Fixed_point
module Contention = Lopc.Contention

(* The unlumped Appendix A solve: one throughput per node, solved node by
   node. With the other nodes' throughputs held, node c's cycle time is
   bracketed above its contention-free bound, from the dense [Vᵀx] at
   every node c visits. [General.solve_status] runs the same sweeps over
   classes of interchangeable nodes; this is the reference it is checked
   against, settling on the same 1e-12 relative moves. [start] replaces
   the contention-free throughputs as the first iterate, and
   [max_sweeps] caps the sweeps over the thread nodes. *)
let dense_general_solve_status ?(max_sweeps = 1_000) ?start t =
  let tol = 1e-12 in
  (match G.validate (fst (lump t)) with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("General: " ^ reason));
  let p = Array.length t.nodes in
  let { Params.st; so; _ } = t.params in
  let beta = Contention.beta t.params in
  let threads = List.filter (fun c -> Option.is_some t.nodes.(c).work) (List.init p Fun.id) in
  let max_queue = Float.of_int (List.length threads) in
  let node_queues a b =
    if 1. -. a -. (a *. b) <= 1e-9 then
      (max_queue, Float.min max_queue (Contention.reply_queue ~beta a b max_queue))
    else begin
      let qq, _ = Contention.queues ~beta ~extra:0. a b in
      let qq = Float.max 0. (Float.min qq max_queue) in
      (qq, Float.max 0. (Float.min (Contention.reply_queue ~beta a b qq) max_queue))
    end
  in
  (* Node k at request rate [lambda] with its own throughput [x]. *)
  let node k ~lambda ~x =
    let a = so *. lambda in
    let b = so *. x in
    let qq, qy = node_queues a b in
    let rq = so *. (1. +. qq +. qy +. (beta *. (a +. b))) in
    let ry = so *. (1. +. qq +. (beta *. a)) in
    let rw =
      match t.nodes.(k).work with
      | None -> Float.nan
      | Some w ->
        if t.protocol_processor then w
        else (w +. (so *. qq)) /. Float.max 1e-6 (1. -. a)
    in
    { G.rq; ry; rw; qq; qy; uq = a; uy = b }
  in
  (* The rate at node k from every thread but [skip]'s. *)
  let rate_without x skip k =
    let acc = ref 0. in
    Array.iteri
      (fun c spec -> if c <> skip then acc := !acc +. (spec.visits.(k) *. x.(c)))
      t.nodes;
    !acc
  in
  let cycle_time c ~at =
    let acc = ref 0. in
    Array.iteri
      (fun k v -> if v > 0. then acc := !acc +. (v *. (st +. (at k).G.rq)))
      t.nodes.(c).visits;
    let own = at c in
    own.G.rw +. !acc +. st +. own.G.ry
  in
  let lower_bound c =
    let spec = t.nodes.(c) in
    let hops = Array.fold_left ( +. ) 0. spec.visits in
    Option.value ~default:Float.nan spec.work +. (hops *. (st +. so)) +. st +. so
  in
  let x =
    match start with
    | Some x -> Array.copy x
    | None -> Array.init p (fun c -> if List.mem c threads then 1. /. lower_bound c else 0.)
  in
  (* Node c's cycle time in units of lb·2⁻⁴⁰, as the class solve takes it. *)
  let solve_node c =
    let base = Array.init p (rate_without x c) in
    let lb = lower_bound c in
    let unit = Float.ldexp lb (-40) in
    let f v =
      let xc = 1. /. (v *. unit) in
      let at k =
        node k ~lambda:(base.(k) +. (t.nodes.(c).visits.(k) *. xc)) ~x:(if k = c then xc else x.(k))
      in
      cycle_time c ~at /. unit
    in
    let v, status = Fixed_point.solve_above_status ~f (lb /. unit) in
    (1. /. (v *. unit), status)
  in
  let order = Array.of_list threads in
  let m = Array.length order in
  let rec sweep ~solves ~evals ~settled ~moved =
    if settled = m then Fixed_point.Converged { iters = evals }
    else if solves = max_sweeps * m then Fixed_point.Diverged { iters = evals; residual = moved }
    else
      let c = order.(solves mod m) in
      match solve_node c with
      | xc, Fixed_point.Converged { iters } ->
        let moved = Float.abs (xc -. x.(c)) /. xc in
        x.(c) <- xc;
        sweep ~solves:(solves + 1) ~evals:(evals + iters)
          ~settled:(if moved <= tol || m = 1 then settled + 1 else 0)
          ~moved
      | _, status -> status
  in
  match sweep ~solves:0 ~evals:0 ~settled:0 ~moved:Float.nan with
  | (Fixed_point.Diverged _ | Fixed_point.Exhausted _ | Fixed_point.Saturated _) as status ->
    (None, status)
  | Fixed_point.Converged _ as status ->
    let per_node = Array.init p (fun k -> node k ~lambda:(rate_without x (-1) k) ~x:x.(k)) in
    ( Some
        {
          G.cycle_times =
            Array.init p (fun c ->
                if List.mem c threads then cycle_time c ~at:(fun k -> per_node.(k)) else Float.nan);
          throughputs = x;
          node_solutions = per_node;
          system_throughput = Array.fold_left ( +. ) 0. x;
        },
      status )

module D = Lopc_dist.Distribution

(* Closed-form variance and C² of each distribution: the reference that
   the sampler and [D.of_mean_scv] are checked against. *)
let dist_variance = function
  | D.Constant _ -> 0.
  | Exponential m -> m *. m
  | Uniform (lo, hi) ->
    let w = hi -. lo in
    w *. w /. 12.
  | Erlang (k, m) -> m *. m /. Float.of_int k
  | Hyperexponential (p, m1, m2) ->
    (* E[X²] of a mixture of exponentials: sum p_i · 2·m_i². *)
    let second = (p *. 2. *. m1 *. m1) +. ((1. -. p) *. 2. *. m2 *. m2) in
    let mu = (p *. m1) +. ((1. -. p) *. m2) in
    second -. (mu *. mu)
  | Shifted_exponential (offset, m) ->
    let tail = m -. offset in
    tail *. tail
  | Empirical samples ->
    let n = Float.of_int (Array.length samples) in
    let mu = Array.fold_left ( +. ) 0. samples /. n in
    Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. samples /. n

let dist_scv d =
  let mu = D.mean d in
  if Float.abs mu < Float.sqrt Float.min_float then 0. else dist_variance d /. (mu *. mu)

let pp_dist ppf = function
  | D.Constant c -> Format.fprintf ppf "Const(%g)" c
  | Exponential m -> Format.fprintf ppf "Exp(mean=%g)" m
  | Uniform (lo, hi) -> Format.fprintf ppf "Uniform[%g, %g]" lo hi
  | Erlang (k, m) -> Format.fprintf ppf "Erlang(k=%d, mean=%g)" k m
  | Hyperexponential (p, m1, m2) -> Format.fprintf ppf "Hyperexp(p=%g, %g, %g)" p m1 m2
  | Shifted_exponential (offset, m) ->
    Format.fprintf ppf "ShiftedExp(offset=%g, mean=%g)" offset m
  | Empirical samples -> Format.fprintf ppf "Empirical(n=%d)" (Array.length samples)

(* Mean residual life seen by a random arrival, (1 + C²)/2 · mean
   (Eq 5.8). *)
let residual_mean d = (1. +. dist_scv d) /. 2. *. D.mean d
