(* All-float record on purpose: OCaml stores a record whose fields are all
   floats flat (no per-field box), so every [add] is three plain stores. A
   mixed record (int count + float moments) boxes each float field and
   every mutable store allocates — measurable on the simulator's per-event
   accumulation path. The count therefore lives in a float; it is an exact
   integer up to 2^53, far beyond any observation stream here. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0. }

let add t x =
  if not (Float.is_finite x) then invalid_arg "Welford.add: non-finite observation";
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let mean t = if Float.equal t.n 0. then Float.nan else t.mean

let variance t =
  if t.n < 2. then 0.
  else
    (t.m2 /. (t.n -. 1.)
    [@lint.allow
      "division-by-vanishing"
        "the count is an exact float integer and this branch holds only for \
         n >= 2, so the denominator is at least 1"])

let stddev t = sqrt (variance t)

let confidence_interval t =
  if t.n < 2. then Float.nan else 1.96 *. stddev t /. sqrt t.n
