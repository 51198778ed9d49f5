type t = Xoshiro256.t

let create seed = Xoshiro256.create (Int64.of_int seed)

let split t =
  let child = Xoshiro256.copy t in
  Xoshiro256.jump child;
  (* Move the parent past the child's 2^128-long stream as well, so further
     splits from either never overlap. *)
  Xoshiro256.jump t;
  Xoshiro256.jump t;
  child

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

let bits64 = Xoshiro256.next

let float = Xoshiro256.next_float

let float_range t lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) || lo > hi then
    invalid_arg "Rng.float_range: invalid bounds";
  lo +. ((hi -. lo) *. float t)

let int_below t bound =
  if bound <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw bound64 in
    if Int64.sub (Int64.add raw (Int64.sub bound64 1L)) v < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let bernoulli t p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Rng.bernoulli: p outside [0,1]";
  float t < p

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  (* 1 - float t is in (0,1], so log never sees 0. *)
  -.mean *. log (1. -. float t)
