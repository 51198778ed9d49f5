module Budget = Lopc_robust.Budget

type status =
  | Converged of { iters : int }
  | Saturated of { station : int; utilization : float }
  | Diverged of { iters : int; residual : float }
  | Exhausted of { iters : int; reason : Budget.stop_reason }

exception Unsolved of status

let get_exn = function Some answer, _ -> answer | None, status -> raise (Unsolved status)

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
