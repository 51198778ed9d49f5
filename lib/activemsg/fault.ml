module Distribution = Lopc_dist.Distribution
module Rng = Lopc_prng.Rng

type backoff =
  | Fixed
  | Exponential of { factor : float; cap : float }
  | Jittered of { spread : float }

type t = {
  drop : float;
  duplicate : float;
  delay_epsilon : float;
  delay_spike : Distribution.t;
  timeout : float;
  backoff : backoff;
  max_tries : int;
}

let create ?(drop = 0.) ?(duplicate = 0.) ?(delay_epsilon = 0.)
    ?(delay_spike = Distribution.Constant 0.) ?(backoff = Fixed) ?(max_tries = 8) ~timeout
    () =
  { drop; duplicate; delay_epsilon; delay_spike; timeout; backoff; max_tries }

let validate t =
  let problem =
    if not (Float.is_finite t.drop) || t.drop < 0. || t.drop >= 1. then
      Some "drop probability must lie in [0, 1)"
    else if not (Float.is_finite t.duplicate) || t.duplicate < 0. || t.duplicate > 1.
    then Some "duplication probability must lie in [0, 1]"
    else if
      not (Float.is_finite t.delay_epsilon)
      || t.delay_epsilon < 0. || t.delay_epsilon > 1.
    then Some "delay-spike weight must lie in [0, 1]"
    else if not (Float.is_finite t.timeout) || t.timeout <= 0. then
      Some "timeout must be positive and finite"
    else if t.max_tries < 1 then Some "retry budget must allow at least one try"
    else
      match t.backoff with
      | Exponential { factor; _ } when factor < 1. || not (Float.is_finite factor) ->
          Some "exponential backoff factor must be >= 1"
      | Exponential { cap; _ } when cap < 1. || not (Float.is_finite cap) ->
          Some "exponential backoff cap must be >= 1"
      | Jittered { spread } when spread < 0. || spread >= 1. ->
          Some "jitter spread must lie in [0, 1)"
      | Fixed | Exponential _ | Jittered _ -> None
  in
  let problem =
    match problem with
    | Some _ -> problem
    | None -> (
        match Distribution.validate t.delay_spike with
        | Error reason -> Some ("delay spike: " ^ reason)
        | Ok _ -> None)
  in
  match problem with Some reason -> Error ("fault: " ^ reason) | None -> Ok t

(* Deterministic part of the backoff schedule: the timeout multiplier for
   the [try_]-th attempt (1-based). The jittered schedule has mean
   multiplier 1 — jitter is sampled in [timeout_for]. *)
let timeout_multiplier t ~try_ =
  match t.backoff with
  | Fixed | Jittered _ -> 1.
  | Exponential { factor; cap } ->
      Float.min cap (factor ** float_of_int (try_ - 1))

let mean_timeout t ~try_ = t.timeout *. timeout_multiplier t ~try_

let timeout_for t ~try_ rng =
  let base = mean_timeout t ~try_ in
  match t.backoff with
  | Fixed | Exponential _ -> base
  | Jittered { spread } ->
      (* Uniform in [1 − spread, 1 + spread] × base: mean stays [base]. *)
      base *. Rng.float_range rng (1. -. spread) (1. +. spread)
