(* Tests for lopc_prng: determinism, uniformity, independence of splits. *)

module Xoshiro256 = Lopc_prng.Xoshiro256

(* Draw helpers no simulation path uses, kept with their tests: each is
   built on the library's primitives ([Rng.float], [Rng.int_below],
   [Splitmix64.next]). *)
module Rng = struct
  include Lopc_prng.Rng

  let int_range t lo hi =
    if lo > hi then invalid_arg "Rng.int_range: empty range";
    lo + int_below t (hi - lo + 1)

  let shuffle_in_place t a =
    for i = Array.length a - 1 downto 1 do
      let j = int_below t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let choose_weighted t weights =
    let total =
      Array.fold_left
        (fun acc w ->
          if w < 0. || not (Float.is_finite w) then
            invalid_arg "Rng.choose_weighted: negative or non-finite weight";
          acc +. w)
        0. weights
    in
    if total <= 0. then invalid_arg "Rng.choose_weighted: weights sum to zero";
    let target = float t *. total in
    let n = Array.length weights in
    let rec scan i acc =
      if i = n - 1 then i
      else
        let acc = acc +. weights.(i) in
        if target < acc then i else scan (i + 1) acc
    in
    scan 0 0.
end

module Splitmix64 = struct
  include Lopc_prng.Splitmix64

  (* Top 53 bits: floats in [0,1) with full mantissa resolution. *)
  let next_float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

  (* Rejection sampling against modulo bias. *)
  let next_below t bound =
    if bound <= 0 then invalid_arg "Splitmix64.next_below: bound must be positive";
    let bound64 = Int64.of_int bound in
    let rec draw () =
      let raw = Int64.shift_right_logical (next t) 1 in
      let v = Int64.rem raw bound64 in
      if Int64.sub (Int64.add raw (Int64.sub bound64 1L)) v < 0L then draw ()
      else Int64.to_int v
    in
    draw ()
end

let check_float = Alcotest.(check (float 1e-9))

let test_splitmix_deterministic () =
  let a = Splitmix64.create 1234L and b = Splitmix64.create 1234L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same sequence" (Splitmix64.next a) (Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Splitmix64.next a <> Splitmix64.next b)

let test_splitmix_float_range () =
  let g = Splitmix64.create 99L in
  for _ = 1 to 10_000 do
    let x = Splitmix64.next_float g in
    if not (x >= 0. && x < 1.) then Alcotest.failf "float out of range: %g" x
  done


let test_splitmix_below_bias () =
  let g = Splitmix64.create 5L in
  let counts = Array.make 7 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let v = Splitmix64.next_below g 7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = Float.of_int n /. 7. in
      if Float.abs (Float.of_int c -. expected) > 5. *. sqrt expected then
        Alcotest.failf "bucket %d count %d too far from %g" i c expected)
    counts


let test_splitmix_below_invalid () =
  let g = Splitmix64.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix64.next_below: bound must be positive")
    (fun () -> ignore (Splitmix64.next_below g 0))


let test_xoshiro_deterministic () =
  let a = Xoshiro256.create 42L and b = Xoshiro256.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same sequence" (Xoshiro256.next a) (Xoshiro256.next b)
  done

let test_xoshiro_jump_changes_stream () =
  let a = Xoshiro256.create 42L in
  let b = Xoshiro256.copy a in
  Xoshiro256.jump b;
  let overlap = ref false in
  let first_a = Xoshiro256.next a in
  for _ = 1 to 1000 do
    if Xoshiro256.next b = first_a then overlap := true
  done;
  Alcotest.(check bool) "jumped stream does not reproduce head" false !overlap

(* Pinned at the allocating jump it replaced: the jumped stream, and both
   sides of an [Rng.split], must stay bit-identical. *)
let test_xoshiro_jump_golden () =
  let t = Xoshiro256.create 42L in
  Xoshiro256.jump t;
  Alcotest.(check (list int64)) "jumped stream"
    [ 7801879436310370213L; -2958677182042702611L; -3303614527530607716L;
      -4972876474618101124L ]
    (List.init 4 (fun _ -> Xoshiro256.next t));
  let draws g = List.init 2 (fun _ -> Rng.bits64 g) in
  let parent = Rng.create 7 in
  let child = draws (Rng.split parent) in
  Alcotest.(check (list int64)) "split child then parent"
    [ -4852523815367366705L; -5798961238653720219L; -1477382414781733257L;
      -5919133867660004278L ]
    (child @ draws parent)

(* The unjumped streams, pinned: [create] seeds s3 from the first
   SplitMix64 output and s0 from the fourth, and a changed seeding order
   moves every stream of every simulation. *)
let test_stream_golden () =
  let t = Xoshiro256.create 42L in
  Alcotest.(check (list int64)) "create 42L"
    [ 7691019137490214302L; -7923975057069671508L; -4092245038992204357L;
      -3447296960835827653L ]
    (List.init 4 (fun _ -> Xoshiro256.next t));
  Alcotest.(check (float 0.)) "first Rng.float of Rng.create 7" 0x1.fcd91c61c5d54p-3
    (Rng.float (Rng.create 7));
  Alcotest.(check (float 0.)) "first Rng.exponential of Rng.create 7" 0x1.247cc1184e4bdp-2
    (Rng.exponential (Rng.create 7) 1.)

(* A draw boxes at most its result: the generator state is stepped in
   place, unboxed. *)
let test_rng_float_allocation () =
  let g = Rng.create 13 and n = 10_000 in
  let words =
    Harness.minor_words_per ~n (fun () ->
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. Rng.float g
        done;
        ignore (Sys.opaque_identity !acc))
  in
  if words > 4. then Alcotest.failf "Rng.float allocates %g words per draw (budget 4)" words

let test_rng_mean_variance () =
  let g = Rng.create 7 in
  let n = 100_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Rng.float g in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. Float.of_int n in
  let var = (!sumsq /. Float.of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.005);
  Alcotest.(check bool) "variance ~ 1/12" true (Float.abs (var -. (1. /. 12.)) < 0.002)

let test_rng_split_independent () =
  let parent = Rng.create 11 in
  let child =
    (Rng.split parent
    [@lint.allow
      "rng-stream-discipline"
        "this test is the one legitimate multi-draw owner: it measures the \
         parent/child correlation, so a single consumer draws the whole stream in \
         a loop; there is no second consumer to couple with"])
  in
  (* Correlation between parent and child outputs should be tiny. *)
  let n = 20_000 in
  let sum_xy = ref 0. and sum_x = ref 0. and sum_y = ref 0. in
  for _ = 1 to n do
    let x = Rng.float parent -. 0.5 and y = Rng.float child -. 0.5 in
    sum_xy := !sum_xy +. (x *. y);
    sum_x := !sum_x +. x;
    sum_y := !sum_y +. y
  done;
  let nf = Float.of_int n in
  let cov = (!sum_xy /. nf) -. (!sum_x /. nf *. (!sum_y /. nf)) in
  Alcotest.(check bool) "covariance small" true (Float.abs cov < 0.01)

let test_rng_split_n () =
  let g = Rng.create 3 in
  let streams = Rng.split_n g 8 in
  Alcotest.(check int) "count" 8 (Array.length streams);
  (* All streams distinct in their first output. *)
  let firsts = Array.map Rng.bits64 streams in
  let sorted = Array.copy firsts in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

let test_rng_exponential_mean () =
  let g = Rng.create 21 in
  let n = 200_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential g 42.
  done;
  let mean = !sum /. Float.of_int n in
  Alcotest.(check bool) "mean within 2%" true (Float.abs (mean -. 42.) < 0.84)

let test_rng_exponential_positive () =
  let g = Rng.create 23 in
  for _ = 1 to 10_000 do
    if Rng.exponential g 1. < 0. then Alcotest.fail "negative exponential draw"
  done

let test_rng_gaussian_moments () =
  let g = Rng.create 31 in
  let n = 200_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Harness.gaussian g in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. Float.of_int n in
  let var = !sumsq /. Float.of_int n in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "variance ~ 1" true (Float.abs (var -. 1.) < 0.03)

let test_rng_int_range_bounds () =
  let g = Rng.create 17 in
  for _ = 1 to 10_000 do
    let v = Rng.int_range g (-3) 9 in
    if v < -3 || v > 9 then Alcotest.failf "out of range: %d" v
  done


let test_rng_bernoulli_extremes () =
  let g = Rng.create 19 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 always false" false (Rng.bernoulli g 0.);
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli g 1.)
  done

let test_rng_choose_weighted () =
  let g = Rng.create 29 in
  let counts = Array.make 3 0 in
  let n = 90_000 in
  for _ = 1 to n do
    let i = Rng.choose_weighted g [| 1.; 2.; 3. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = Float.of_int counts.(i) /. Float.of_int n in
  Alcotest.(check bool) "w1 ~ 1/6" true (Float.abs (frac 0 -. (1. /. 6.)) < 0.01);
  Alcotest.(check bool) "w2 ~ 2/6" true (Float.abs (frac 1 -. (2. /. 6.)) < 0.01);
  Alcotest.(check bool) "w3 ~ 3/6" true (Float.abs (frac 2 -. (3. /. 6.)) < 0.01)


let test_rng_choose_weighted_invalid () =
  let g = Rng.create 1 in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.choose_weighted: weights sum to zero") (fun () ->
      ignore (Rng.choose_weighted g [| 0.; 0. |]))


let test_rng_shuffle_permutation () =
  let g = Rng.create 47 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 Fun.id) sorted

(* qcheck properties *)

let prop_int_below_in_range =
  QCheck.Test.make ~name:"int_below always in [0, bound)" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Rng.create seed in
      let v = Rng.int_below g bound in
      v >= 0 && v < bound)

let prop_float_range =
  QCheck.Test.make ~name:"float_range within bounds" ~count:1000
    QCheck.(triple small_int (float_bound_exclusive 1000.) (float_bound_exclusive 1000.))
    (fun (seed, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let g = Rng.create seed in
      let v = Rng.float_range g lo hi in
      v >= lo && (v < hi || lo = hi))

let suite =
  [
    Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix seed sensitivity" `Quick test_splitmix_seed_sensitivity;
    Alcotest.test_case "splitmix float range" `Quick test_splitmix_float_range;
    Alcotest.test_case "splitmix below unbiased" `Quick test_splitmix_below_bias;
    Alcotest.test_case "splitmix below invalid" `Quick test_splitmix_below_invalid;
    Alcotest.test_case "xoshiro deterministic" `Quick test_xoshiro_deterministic;
    Alcotest.test_case "xoshiro jump changes stream" `Quick test_xoshiro_jump_changes_stream;
    Alcotest.test_case "xoshiro jump golden stream" `Quick test_xoshiro_jump_golden;
    Alcotest.test_case "rng uniform moments" `Quick test_rng_mean_variance;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng split_n distinct" `Quick test_rng_split_n;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng exponential positive" `Quick test_rng_exponential_positive;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng int_range bounds" `Quick test_rng_int_range_bounds;
    Alcotest.test_case "rng bernoulli extremes" `Quick test_rng_bernoulli_extremes;
    Alcotest.test_case "rng choose_weighted proportions" `Quick test_rng_choose_weighted;
    Alcotest.test_case "rng choose_weighted invalid" `Quick test_rng_choose_weighted_invalid;
    Alcotest.test_case "rng shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_int_below_in_range;
    QCheck_alcotest.to_alcotest prop_float_range;
    Alcotest.test_case "xoshiro and rng golden streams" `Quick test_stream_golden;
    Alcotest.test_case "rng float allocation budget" `Quick test_rng_float_allocation;
  ]
