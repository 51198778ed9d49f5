module Budget = Lopc_robust.Budget

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

(* The one damped, budgeted iteration loop: returns the last iterate (on
   convergence, F of it) and the structured status. The scalar solver is
   its length-1 case. *)
let vector_impl ?budget ~damping ~tol ~max_iter ~f ~name x0 =
  if damping <= 0. || damping > 1. then invalid_arg (name ^ ": damping");
  let n = Array.length x0 in
  let x = ref (Array.copy x0) in
  let result : (float array * status) option ref = ref None in
  (try
     let stop value status =
       result := Some (value, status);
       raise Exit
     in
     for iter = 1 to max_iter do
       (match Option.bind budget Budget.check with
       | None -> ()
       | Some reason -> stop !x (Exhausted { iters = iter - 1; reason }));
       let fx = f !x in
       if Array.length fx <> n || not (Array.for_all Float.is_finite fx) then
         stop !x (Diverged { iters = iter; residual = Float.nan });
       let residual = max_norm_diff fx !x in
       let scale = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. !x in
       if residual <= tol *. scale then stop fx (Converged { iters = iter });
       x := Array.mapi (fun i xi -> ((1. -. damping) *. xi) +. (damping *. fx.(i))) !x
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
      (!x, Diverged { iters = max_iter; residual })

let solve_vector_status ?budget ?(damping = 1.) ?(tol = 1e-10)
    ?(max_iter = 10_000) ~f x0 =
  vector_impl ?budget ~damping ~tol ~max_iter ~f
    ~name:"Fixed_point.solve_vector_status" x0

let solve_scalar_status ?budget ?(damping = 1.) ?(tol = 1e-10)
    ?(max_iter = 10_000) ~f x0 =
  let value, status =
    vector_impl ?budget ~damping ~tol ~max_iter
      ~f:(fun x -> [| f x.(0) |])
      ~name:"Fixed_point.solve_scalar_status" [| x0 |]
  in
  (value.(0), status)

(* Roots gives the residual callback no way out but an exception, so the
   budget stop and a non-finite residual are raised there ([residual] is
   defined inside the [try], so each raise is lexically within its
   handler) and mapped onto [Exhausted] and [Diverged] here. A non-finite
   residual would otherwise reach Brent's sign tests, where every
   comparison with [nan] is false, and come back as a [Converged] nan. A
   non-finite [lb] needs no check of its own: [F lb − lb] is then never
   finite. The guard evaluation at [lb] counts like any other. *)
exception Non_finite

let solve_above_status ?budget ~f lb =
  let evals = ref 0 in
  try
    let residual r =
      Budget.check_exn budget;
      incr evals;
      let fr = f r -. r in
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
