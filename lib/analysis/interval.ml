(* The numeric stage's abstract domain: closed float intervals with an
   explicit may-be-NaN bit. Soundness of the transfer functions rests on
   IEEE rounding being monotone: for a monotone-in-each-argument real
   operation, evaluating the float operation at the interval corners
   brackets every concrete float result, so no directed rounding is
   needed. The corner cases that produce NaN concretely (inf - inf,
   0 * inf, 0/0, inf/inf) are detected and folded into the [nan] flag. *)

type t = { range : (float * float) option; nan : bool }

let bot = { range = None; nan = false }
let top = { range = Some (neg_infinity, infinity); nan = true }
let nan_only = { range = None; nan = true }

let v lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Interval.v: bounds must be ordered and not NaN";
  { range = Some (lo, hi); nan = false }

let const c =
  if Float.is_nan c then nan_only else { range = Some (c, c); nan = false }

let is_bot t = (match t.range with None -> true | Some _ -> false) && not t.nan

let is_top t =
  t.nan
  &&
  match t.range with
  | Some (lo, hi) -> Float.equal lo neg_infinity && Float.equal hi infinity
  | None -> false

let equal a b =
  Bool.equal a.nan b.nan
  &&
  match (a.range, b.range) with
  | None, None -> true
  | Some (al, ah), Some (bl, bh) -> Float.equal al bl && Float.equal ah bh
  | None, Some _ | Some _, None -> false

let leq a b =
  (not a.nan || b.nan)
  &&
  match (a.range, b.range) with
  | None, _ -> true
  | Some _, None -> false
  | Some (al, ah), Some (bl, bh) -> bl <= al && ah <= bh

let join a b =
  let nan = a.nan || b.nan in
  match (a.range, b.range) with
  | None, r | r, None -> { range = r; nan }
  | Some (al, ah), Some (bl, bh) ->
    { range = Some (Float.min al bl, Float.max ah bh); nan }

let meet a b =
  let nan = a.nan && b.nan in
  match (a.range, b.range) with
  | None, _ | _, None -> { range = None; nan }
  | Some (al, ah), Some (bl, bh) ->
    let lo = Float.max al bl and hi = Float.min ah bh in
    { range = (if lo > hi then None else Some (lo, hi)); nan }

(* Fixed thresholds bound the number of distinct values a widened bound
   can take, so chaotic iteration with [widen] always terminates. The
   model-relevant landmarks are 0 (costs, rates) and 1 (probabilities,
   utilisations). *)
let lo_thresholds = [ 1.; 0.; -1.; neg_infinity ]
let hi_thresholds = [ -1.; 0.; 1.; infinity ]

let widen old next =
  let nan = old.nan || next.nan in
  match (old.range, next.range) with
  | None, r | r, None -> { range = r; nan }
  | Some (ol, oh), Some (nl, nh) ->
    let lo = if nl < ol then List.find (fun th -> th <= nl) lo_thresholds else ol in
    let hi = if nh > oh then List.find (fun th -> th >= nh) hi_thresholds else oh in
    { range = Some (lo, hi); nan }

let contains_zero t =
  match t.range with Some (lo, hi) -> lo <= 0. && 0. <= hi | None -> false

let may_nan t = t.nan

let may_pos_inf t =
  match t.range with Some (_, hi) -> Float.equal hi infinity | None -> false

let may_neg_inf t =
  match t.range with Some (lo, _) -> Float.equal lo neg_infinity | None -> false

let may_inf t = may_pos_inf t || may_neg_inf t

(* Hull of the non-NaN corner values; a NaN corner means some attainable
   endpoint combination produces NaN concretely, so it sets the flag. *)
let of_corners ~nan corners =
  let reals = List.filter (fun c -> not (Float.is_nan c)) corners in
  let nan = nan || List.exists Float.is_nan corners in
  match reals with
  | [] -> { range = None; nan }
  | c :: rest ->
    let lo = List.fold_left Float.min c rest
    and hi = List.fold_left Float.max c rest in
    { range = Some (lo, hi); nan }

(* Binary transfer skeleton: bottom is absorbing; an operand that is
   NaN-only poisons the result to NaN-only. *)
let lift2 f a b =
  if is_bot a || is_bot b then bot
  else
    match (a.range, b.range) with
    | None, _ | _, None -> nan_only
    | Some ra, Some rb -> f ~nan:(a.nan || b.nan) ra rb

let lift1 f a =
  if is_bot a then bot
  else match a.range with None -> nan_only | Some r -> f ~nan:a.nan r

let neg =
  lift1 (fun ~nan (lo, hi) -> { range = Some (-.hi, -.lo); nan })

let abs =
  lift1 (fun ~nan (lo, hi) ->
      if lo >= 0. then { range = Some (lo, hi); nan }
      else if hi <= 0. then { range = Some (-.hi, -.lo); nan }
      else { range = Some (0., Float.max (-.lo) hi); nan })

let add =
  lift2 (fun ~nan (al, ah) (bl, bh) ->
      of_corners ~nan [ al +. bl; al +. bh; ah +. bl; ah +. bh ])

let sub =
  lift2 (fun ~nan (al, ah) (bl, bh) ->
      of_corners ~nan [ al -. bl; al -. bh; ah -. bl; ah -. bh ])

(* Whether the range [lo, hi] holds a finite float. *)
let has_finite lo hi = lo < hi || Float.is_finite lo

let mul a b =
  lift2
    (fun ~nan (al, ah) (bl, bh) ->
      (* 0 * inf can arise with 0 in the interior, which corners miss. *)
      let nan =
        nan
        || (contains_zero a && may_inf b)
        || (contains_zero b && may_inf a)
      in
      (* A corner like 0 * inf evaluates to NaN and drops out of the hull,
         but zero-times-finite products of interior members are real: for
         [-0,-0] * [-inf,inf] every corner is NaN while -0. *. 1. is -0.
         Whenever one operand admits 0 and the other a finite value, 0 is
         an attainable product, so pin it into the hull explicitly. *)
      let corners = [ al *. bl; al *. bh; ah *. bl; ah *. bh ] in
      let corners =
        if
          (contains_zero a && has_finite bl bh)
          || (contains_zero b && has_finite al ah)
        then 0. :: corners
        else corners
      in
      of_corners ~nan corners)
    a b

let div a b =
  lift2
    (fun ~nan (al, ah) (bl, bh) ->
      if contains_zero b then
        (* x / ±0 jumps to ±inf on either side of the pole, so the hull is
           the full line; 0/0 (and inf/inf if both admit it) is NaN. *)
        {
          range = Some (neg_infinity, infinity);
          nan = nan || contains_zero a || (may_inf a && may_inf b);
        }
      else
        let nan = nan || (may_inf a && may_inf b) in
        (* finite / ±inf is ±0, but for [-inf, inf] / [-inf, -inf] every
           corner is inf/inf = NaN and the hull would miss it. *)
        let corners = [ al /. bl; al /. bh; ah /. bl; ah /. bh ] in
        let corners = if may_inf b && has_finite al ah then 0. :: corners else corners in
        of_corners ~nan corners)
    a b

let min_ =
  lift2 (fun ~nan (al, ah) (bl, bh) ->
      { range = Some (Float.min al bl, Float.min ah bh); nan })

let max_ =
  lift2 (fun ~nan (al, ah) (bl, bh) ->
      { range = Some (Float.max al bl, Float.max ah bh); nan })

let sqrt_ =
  lift1 (fun ~nan (lo, hi) ->
      if hi < 0. then { range = None; nan = true }
      else
        let nan = nan || lo < 0. in
        { range = Some (sqrt (Float.max lo 0.), sqrt hi); nan })

let exp_ = lift1 (fun ~nan (lo, hi) -> { range = Some (exp lo, exp hi); nan })

let refine t ~cmp ~bound ~int_typed ~keep_nan =
  if Float.is_nan bound then (* x cmp NaN never holds *)
    if keep_nan then { range = None; nan = t.nan } else bot
  else
    let strict_below b = if int_typed then b -. 1. else Float.pred b in
    let strict_above b = if int_typed then b +. 1. else Float.succ b in
    let half =
      match cmp with
      | `Lt ->
        let hi = strict_below bound in
        if Float.is_nan hi then None else Some (neg_infinity, hi)
      | `Le -> Some (neg_infinity, bound)
      | `Gt ->
        let lo = strict_above bound in
        if Float.is_nan lo then None else Some (lo, infinity)
      | `Ge -> Some (bound, infinity)
      | `Eq -> Some (bound, bound)
    in
    meet t { range = half; nan = keep_nan }

let to_string t =
  if is_bot t then "_|_"
  else if is_top t then "top"
  else
    match t.range with
    | None -> "NaN"
    | Some (lo, hi) ->
      Printf.sprintf "[%g, %g]%s" lo hi (if t.nan then " or-NaN" else "")
