module Budget = Lopc_robust.Budget

type outcome = { value : float array; iterations : int; residual : float }

type status =
  | Converged of { iters : int }
  | Saturated of { station : int; utilization : float }
  | Diverged of { iters : int; residual : float }
  | Exhausted of { iters : int; reason : Budget.stop_reason }

(* The model solvers' raising [solve] wrappers predate the structured
   [status] type; type-directed disambiguation separates the exception from
   the [status] constructor of the same name. *)
exception Diverged of string

let pp_status ppf = function
  | Converged { iters } -> Format.fprintf ppf "converged in %d iterations" iters
  | Saturated { station; utilization } ->
      Format.fprintf ppf "saturated at station %d (utilization %.4f)" station utilization
  | Diverged { iters; residual } ->
      Format.fprintf ppf "diverged after %d iterations (residual %g)" iters residual
  | Exhausted { iters; reason } ->
      Format.fprintf ppf "stopped after %d iterations: %s" iters
        (Budget.reason_to_string reason)

let status_to_string s = Format.asprintf "%a" pp_status s

let max_norm_diff a b =
  let m = ref 0. in
  Array.iteri (fun i ai -> m := Float.max !m (Float.abs (ai -. b.(i)))) a;
  !m

(* The one damped, budgeted, probed iteration loop: returns the outcome
   and the structured status. The scalar solver is its length-1 case. *)
let vector_impl ?probe ?budget ~damping ~tol ~max_iter ~f ~name x0 =
  if damping <= 0. || damping > 1. then invalid_arg (name ^ ": damping");
  let n = Array.length x0 in
  let x = ref (Array.copy x0) in
  let result : (outcome * status) option ref = ref None in
  (try
     for iter = 1 to max_iter do
       (match budget with
       | None -> ()
       | Some b -> (
         match Budget.check b with
         | None -> ()
         | Some reason ->
           result :=
             Some
               ( { value = !x; iterations = iter - 1; residual = Float.nan },
                 Exhausted { iters = iter - 1; reason } );
           raise Exit));
       let fx = f !x in
       if Array.length fx <> n then begin
         result :=
           Some
             ( { value = !x; iterations = iter; residual = Float.nan },
               Diverged { iters = iter; residual = Float.nan } );
         raise Exit
       end;
       if not (Array.for_all Float.is_finite fx) then begin
         result :=
           Some
             ( { value = !x; iterations = iter; residual = Float.nan },
               Diverged { iters = iter; residual = Float.nan } );
         raise Exit
       end;
       let residual = max_norm_diff fx !x in
       (match probe with
       | None -> ()
       | Some p ->
         p
           {
             Solver_probe.iter;
             residual;
             damping;
             iterate = Array.copy !x;
             hottest = None;
           });
       let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. !x in
       if residual <= tol *. scale then begin
         result :=
           Some
             ({ value = fx; iterations = iter; residual }, Converged { iters = iter });
         raise Exit
       end;
       let next =
         Array.mapi (fun i xi -> ((1. -. damping) *. xi) +. (damping *. fx.(i))) !x
       in
       x := next
     done
   with Exit -> ());
  match !result with
  | Some r -> r
  | None ->
      let fx = f !x in
      let residual =
        if Array.length fx = n && Array.for_all Float.is_finite fx then
          max_norm_diff fx !x
        else Float.nan
      in
      ({ value = !x; iterations = max_iter; residual }, Diverged { iters = max_iter; residual })

let solve_vector_status ?probe ?budget ?(damping = 1.) ?(tol = 1e-10)
    ?(max_iter = 10_000) ~f x0 =
  vector_impl ?probe ?budget ~damping ~tol ~max_iter ~f
    ~name:"Fixed_point.solve_vector_status" x0

let solve_scalar_status ?probe ?budget ?(damping = 1.) ?(tol = 1e-10)
    ?(max_iter = 10_000) ~f x0 =
  let outcome, status =
    vector_impl ?probe ?budget ~damping ~tol ~max_iter
      ~f:(fun x -> [| f x.(0) |])
      ~name:"Fixed_point.solve_scalar_status" [| x0 |]
  in
  (outcome.value.(0), status)

(* Roots gives the residual callback no way out but an exception, so the
   budget stop and a non-finite residual are raised there ([residual] is
   defined inside the [try], so each raise is lexically within its
   handler) and mapped onto [Exhausted] and [Diverged] here. A non-finite
   residual would otherwise reach Brent's sign tests, where every
   comparison with [nan] is false, and come back as a [Converged] nan. A
   non-finite [lb] needs no check of its own: [F lb − lb] is then never
   finite. The guard evaluation at [lb] counts like any other. *)
exception Non_finite

let solve_above_status ?probe ?budget ~f lb =
  let evals = ref 0 in
  try
    let residual r =
      Budget.check_exn budget;
      incr evals;
      let fr = f r -. r in
      (match probe with
      | None -> ()
      | Some p ->
        p
          {
            Solver_probe.iter = !evals;
            residual = Float.abs fr;
            damping = 1.;
            iterate = [| r |];
            hottest = None;
          });
      if Float.is_finite fr then fr else raise_notrace Non_finite
    in
    if residual lb <= 0. then (lb, Converged { iters = !evals })
    else
      match Roots.brent_above ~f:residual lb with
      | r -> (r, Converged { iters = !evals })
      | exception Roots.No_bracket ->
        (lb, Diverged { iters = !evals; residual = Float.abs (f lb -. lb) })
  with
  | Budget.Stop reason -> (lb, Exhausted { iters = !evals; reason })
  | Non_finite -> (lb, Diverged { iters = !evals; residual = Float.nan })
