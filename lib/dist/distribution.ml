module Rng = Lopc_prng.Rng

type t =
  | Constant of float
  | Exponential of float
  | Uniform of float * float
  | Erlang of int * float
  | Hyperexponential of float * float * float
  | Shifted_exponential of float * float
  | Empirical of float array

let validate t =
  let ok = Ok t in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let nonneg x = Float.is_finite x && x >= 0. in
  match t with
  | Constant c ->
    if nonneg c then ok else err "Constant: value must be finite and >= 0, got %g" c
  | Exponential m ->
    if nonneg m then ok else err "Exponential: mean must be finite and >= 0, got %g" m
  | Uniform (lo, hi) ->
    if nonneg lo && nonneg hi && lo <= hi then ok
    else err "Uniform: bounds must be finite with 0 <= lo <= hi, got [%g, %g]" lo hi
  | Erlang (k, m) ->
    if k >= 1 && nonneg m then ok
    else err "Erlang: need k >= 1 and a finite mean >= 0, got k=%d mean=%g" k m
  | Hyperexponential (p, m1, m2) ->
    if 0. <= p && p <= 1. && nonneg m1 && nonneg m2 then ok
    else
      err
        "Hyperexponential: need 0 <= p <= 1 and finite means >= 0, got (p=%g, \
         mean1=%g, mean2=%g)"
        p m1 m2
  | Shifted_exponential (offset, m) ->
    if nonneg offset && nonneg m && offset <= m then ok
    else
      err "Shifted_exponential: need finite 0 <= offset <= mean, got offset=%g mean=%g" offset m
  | Empirical samples ->
    if Array.length samples = 0 then err "Empirical: empty sample array"
    else if Array.exists (fun x -> not (nonneg x)) samples then
      err "Empirical: samples must be finite and non-negative"
    else ok

let check t =
  match validate t with Ok t -> t | Error reason -> invalid_arg ("Distribution: " ^ reason)

let empirical_mean samples =
  Array.fold_left ( +. ) 0. samples /. Float.of_int (Array.length samples)

(* Exact-zero test for degenerate-case dispatch: sampling and moment guards
   must only special-case true zeros; tiny positive means are legitimate
   scales and take the general path. *)
let exactly_zero x = Float.classify_float x = FP_zero

let mean = function
  | Constant c -> c
  | Exponential m -> m
  | Uniform (lo, hi) -> (lo +. hi) /. 2.
  | Erlang (_, m) -> m
  | Hyperexponential (p, m1, m2) -> (p *. m1) +. ((1. -. p) *. m2)
  | Shifted_exponential (_, m) -> m
  | Empirical samples -> empirical_mean samples

let sample t rng =
  match check t with
  | Constant c -> c
  | Exponential m -> if exactly_zero m then 0. else Rng.exponential rng m
  | Uniform (lo, hi) -> if Float.equal lo hi then lo else Rng.float_range rng lo hi
  | Erlang (k, m) ->
    if exactly_zero m then 0.
    else begin
      let phase_mean = m /. Float.of_int k in
      let acc = ref 0. in
      for _ = 1 to k do
        acc := !acc +. Rng.exponential rng phase_mean
      done;
      !acc
    end
  | Hyperexponential (p, m1, m2) ->
    let m = if Rng.bernoulli rng p then m1 else m2 in
    if exactly_zero m then 0. else Rng.exponential rng m
  | Shifted_exponential (offset, m) ->
    let tail = m -. offset in
    offset +. (if exactly_zero tail then 0. else Rng.exponential rng tail)
  | Empirical samples -> samples.(Rng.int_below rng (Array.length samples))

let of_mean_scv ~mean:m ~scv:c2 =
  if not (Float.is_finite m && m >= 0.) then
    invalid_arg "Distribution.of_mean_scv: mean must be finite and >= 0";
  if not (Float.is_finite c2 && c2 >= 0.) then
    invalid_arg "Distribution.of_mean_scv: scv must be finite and >= 0";
  if exactly_zero m || exactly_zero c2 then Constant m
  else if c2 < 1. then
    (* Shifted exponential: C² = (1 − offset/mean)², so
       offset = mean·(1 − sqrt C²). *)
    Shifted_exponential (m *. (1. -. sqrt c2), m)
  else if exactly_zero (c2 -. 1.) then Exponential m
  else begin
    (* Balanced-means two-phase hyperexponential (Allen 1990):
       p = (1 + sqrt((C²−1)/(C²+1))) / 2, branch means chosen so each
       branch contributes half the total mean. *)
    let p = (1. +. sqrt ((c2 -. 1.) /. (c2 +. 1.))) /. 2. in
    let m1 = m /. (2. *. p)
    and m2 =
      (m
      /. (2. *. (1. -. p))
      [@lint.allow
        "division-by-vanishing"
          "this branch has finite c2 > 1, so sqrt((c2-1)/(c2+1)) < 1 strictly and \
           p < 1, keeping 1 - p positive"])
    in
    Hyperexponential (p, m1, m2)
  end
