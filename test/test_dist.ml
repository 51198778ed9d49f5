(* Tests for lopc_dist: exact moments, sampling agreement, of_mean_scv. *)

module D = Lopc_dist.Distribution
module Rng = Lopc_prng.Rng

let sample_moments dist n seed =
  let g = Rng.create seed in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = D.sample dist g in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let nf = Float.of_int n in
  let mean = !sum /. nf in
  (mean, (!sumsq /. nf) -. (mean *. mean))

let check_sampling name dist =
  let n = 200_000 in
  let mean, var = sample_moments dist n 17 in
  let m = D.mean dist and v = Harness.dist_variance dist in
  let mean_tol = 0.02 *. Float.max 1. m in
  if Float.abs (mean -. m) > mean_tol then
    Alcotest.failf "%s: sampled mean %g vs exact %g" name mean m;
  let var_tol = 0.08 *. Float.max 1. v in
  if Float.abs (var -. v) > var_tol then
    Alcotest.failf "%s: sampled variance %g vs exact %g" name var v

let test_constant () =
  let d = D.Constant 42. in
  Alcotest.(check (float 0.)) "mean" 42. (D.mean d);
  Alcotest.(check (float 0.)) "variance" 0. (Harness.dist_variance d);
  Alcotest.(check (float 0.)) "scv" 0. (Harness.dist_scv d);
  let g = Rng.create 1 in
  for _ = 1 to 10 do
    Alcotest.(check (float 0.)) "sample" 42. (D.sample d g)
  done

let test_exponential_moments () =
  let d = D.Exponential 100. in
  Alcotest.(check (float 1e-9)) "mean" 100. (D.mean d);
  Alcotest.(check (float 1e-9)) "scv" 1. (Harness.dist_scv d);
  check_sampling "exponential" d

let test_uniform_moments () =
  let d = D.Uniform (10., 30.) in
  Alcotest.(check (float 1e-9)) "mean" 20. (D.mean d);
  Alcotest.(check (float 1e-9)) "variance" (400. /. 12.) (Harness.dist_variance d);
  check_sampling "uniform" d

let test_erlang_moments () =
  let d = D.Erlang (4, 80.) in
  Alcotest.(check (float 1e-9)) "mean" 80. (D.mean d);
  Alcotest.(check (float 1e-9)) "scv = 1/k" 0.25 (Harness.dist_scv d);
  check_sampling "erlang" d

let test_hyperexponential_moments () =
  let d = D.Hyperexponential (0.3, 10., 100.) in
  Alcotest.(check (float 1e-9)) "mean" 73. (D.mean d);
  Alcotest.(check bool) "scv >= 1" true (Harness.dist_scv d >= 1.);
  check_sampling "hyperexponential" d

let test_shifted_exponential_moments () =
  let d = D.Shifted_exponential (50., 80.) in
  Alcotest.(check (float 1e-9)) "mean" 80. (D.mean d);
  Alcotest.(check (float 1e-9)) "variance" 900. (Harness.dist_variance d);
  check_sampling "shifted exponential" d

let check_mean_scv ~mean ~scv =
  let d = D.of_mean_scv ~mean ~scv in
  Alcotest.(check (float 1e-6)) (Printf.sprintf "mean(%g,%g)" mean scv) mean (D.mean d);
  Alcotest.(check (float 1e-6)) (Printf.sprintf "scv(%g,%g)" mean scv) scv (Harness.dist_scv d)

let test_of_mean_scv_exact () =
  List.iter
    (fun (mean, scv) -> check_mean_scv ~mean ~scv)
    [ (200., 0.); (200., 0.25); (200., 0.5); (200., 1.); (200., 2.); (131., 1.5); (1., 4.) ]

let test_residual_mean () =
  (* Exponential: residual = mean; constant: residual = mean/2 (Eq 5.8). *)
  Alcotest.(check (float 1e-9)) "exp residual" 100. (Harness.residual_mean (D.Exponential 100.));
  Alcotest.(check (float 1e-9)) "const residual" 50. (Harness.residual_mean (D.Constant 100.))


let test_of_mean_scv_shapes () =
  (match D.of_mean_scv ~mean:10. ~scv:0. with
  | D.Constant _ -> ()
  | d -> Alcotest.failf "expected Constant, got %s" (Format.asprintf "%a" Harness.pp_dist d));
  (match D.of_mean_scv ~mean:10. ~scv:1. with
  | D.Exponential _ -> ()
  | d -> Alcotest.failf "expected Exponential, got %s" (Format.asprintf "%a" Harness.pp_dist d));
  (match D.of_mean_scv ~mean:10. ~scv:0.5 with
  | D.Shifted_exponential _ -> ()
  | d -> Alcotest.failf "expected Shifted_exponential, got %s" (Format.asprintf "%a" Harness.pp_dist d));
  match D.of_mean_scv ~mean:10. ~scv:3. with
  | D.Hyperexponential _ -> ()
  | d -> Alcotest.failf "expected Hyperexponential, got %s" (Format.asprintf "%a" Harness.pp_dist d)

let test_of_mean_scv_invalid () =
  Alcotest.check_raises "negative mean"
    (Invalid_argument "Distribution.of_mean_scv: mean must be finite and >= 0") (fun () ->
      ignore (D.of_mean_scv ~mean:(-1.) ~scv:1.));
  Alcotest.check_raises "negative scv"
    (Invalid_argument "Distribution.of_mean_scv: scv must be finite and >= 0") (fun () ->
      ignore (D.of_mean_scv ~mean:1. ~scv:(-0.5)))

let test_validate () =
  (match D.validate (D.Uniform (5., 3.)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted uniform bounds accepted");
  (match D.validate (D.Erlang (0, 10.)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k=0 Erlang accepted");
  (match D.validate (D.Hyperexponential (1.5, 1., 1.)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p>1 hyperexponential accepted");
  match D.validate (D.Shifted_exponential (5., 3.)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "offset>mean shifted exponential accepted"

let test_samples_nonnegative () =
  let g = Rng.create 13 in
  let dists =
    [
      D.Constant 0.;
      D.Exponential 5.;
      D.Uniform (0., 2.);
      D.Erlang (3, 9.);
      D.Hyperexponential (0.5, 1., 10.);
      D.Shifted_exponential (1., 2.);
    ]
  in
  List.iter
    (fun d ->
      for _ = 1 to 1000 do
        if D.sample d g < 0. then Alcotest.failf "%s sampled negative" (Format.asprintf "%a" Harness.pp_dist d)
      done)
    dists

let test_zero_mean_edge () =
  let g = Rng.create 1 in
  Alcotest.(check (float 0.)) "Exp(0) samples 0" 0. (D.sample (D.Exponential 0.) g);
  Alcotest.(check (float 0.)) "Erlang mean 0" 0. (D.sample (D.Erlang (2, 0.)) g)

let test_empirical () =
  let d = D.Empirical [| 10.; 20.; 30. |] in
  Alcotest.(check (float 1e-9)) "mean" 20. (D.mean d);
  Alcotest.(check (float 1e-9)) "variance" (200. /. 3.) (Harness.dist_variance d);
  let g = Rng.create 3 in
  for _ = 1 to 500 do
    let x = D.sample d g in
    if not (List.mem x [ 10.; 20.; 30. ]) then Alcotest.failf "unexpected sample %g" x
  done;
  check_sampling "empirical" d

let test_empirical_invalid () =
  (match D.validate (D.Empirical [||]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty empirical accepted");
  match D.validate (D.Empirical [| 1.; -2. |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative empirical sample accepted"

let prop_of_mean_scv_roundtrip =
  QCheck.Test.make ~name:"of_mean_scv reproduces (mean, scv) exactly" ~count:500
    QCheck.(pair (float_range 0.001 10_000.) (float_range 0. 8.))
    (fun (mean, scv) ->
      let d = D.of_mean_scv ~mean ~scv in
      Float.abs (D.mean d -. mean) <= 1e-6 *. mean
      && Float.abs (Harness.dist_scv d -. scv) <= 1e-6 *. Float.max 1. scv)

let prop_residual_consistent =
  QCheck.Test.make ~name:"residual_mean = (1+C2)/2 * mean" ~count:200
    QCheck.(pair (float_range 0.001 1000.) (float_range 0. 5.))
    (fun (mean, scv) ->
      let d = D.of_mean_scv ~mean ~scv in
      let expected = (1. +. Harness.dist_scv d) /. 2. *. D.mean d in
      Float.abs (Harness.residual_mean d -. expected) <= 1e-9 *. Float.max 1. expected)


let hostile_values = [ Float.nan; Float.infinity; Float.neg_infinity; -1. ]

let hostile_distributions x =
  [
    D.Constant x;
    D.Exponential x;
    D.Uniform (x, 1.);
    D.Uniform (0., x);
    D.Erlang (2, x);
    D.Hyperexponential (0.5, x, 1.);
    D.Hyperexponential (0.5, 1., x);
    D.Shifted_exponential (x, 1.);
    D.Shifted_exponential (0., x);
    D.Empirical [| 1.; x |];
  ]

(* Every constructor and of_mean_scv refuse each hostile parameter with a
   message that says "finite", at construction time rather than when the
   simulator schedules a non-finite delay. *)
let test_hostile_parameters () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun x ->
      let name = Printf.sprintf "%g" x in
      List.iter
        (fun d ->
          match D.validate d with
          | Ok _ -> Alcotest.failf "%a accepted %s" Harness.pp_dist d name
          | Error msg ->
            if not (contains msg "finite") then
              Alcotest.failf "%a: %S does not say finite" Harness.pp_dist d msg)
        (hostile_distributions x);
      List.iter
        (fun (what, f) ->
          match f () with
          | _ -> Alcotest.failf "of_mean_scv accepted %s %s" what name
          | exception Invalid_argument msg ->
            if not (contains msg "finite") then
              Alcotest.failf "of_mean_scv %s: %S does not say finite" what msg)
        [
          ("mean", fun () -> D.of_mean_scv ~mean:x ~scv:1.);
          ("scv", fun () -> D.of_mean_scv ~mean:1. ~scv:x);
        ])
    hostile_values

(* [sample] checks its distribution on every draw, through a predicate
   that allocates nothing, and raises the message [validate] gives. *)
let test_hostile_sample_raises () =
  let g = Rng.create 3 in
  List.iter
    (fun x ->
      List.iter
        (fun d ->
          let expected =
            match D.validate d with
            | Ok _ -> Alcotest.failf "validate accepted %a" Harness.pp_dist d
            | Error reason -> "Distribution: " ^ reason
          in
          match D.sample d g with
          | v -> Alcotest.failf "%a sampled %g" Harness.pp_dist d v
          | exception Invalid_argument msg ->
            Alcotest.(check string) (Format.asprintf "%a" Harness.pp_dist d) expected msg)
        (hostile_distributions x))
    hostile_values

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "hostile parameters rejected" `Quick test_hostile_parameters;
    Alcotest.test_case "exponential moments" `Quick test_exponential_moments;
    Alcotest.test_case "uniform moments" `Quick test_uniform_moments;
    Alcotest.test_case "erlang moments" `Quick test_erlang_moments;
    Alcotest.test_case "hyperexponential moments" `Quick test_hyperexponential_moments;
    Alcotest.test_case "shifted exponential moments" `Quick test_shifted_exponential_moments;
    Alcotest.test_case "residual mean (Eq 5.8)" `Quick test_residual_mean;
    Alcotest.test_case "of_mean_scv exact" `Quick test_of_mean_scv_exact;
    Alcotest.test_case "of_mean_scv shapes" `Quick test_of_mean_scv_shapes;
    Alcotest.test_case "of_mean_scv invalid" `Quick test_of_mean_scv_invalid;
    Alcotest.test_case "validate rejects bad parameters" `Quick test_validate;
    Alcotest.test_case "samples non-negative" `Quick test_samples_nonnegative;
    Alcotest.test_case "zero mean edge cases" `Quick test_zero_mean_edge;
    Alcotest.test_case "empirical distribution" `Quick test_empirical;
    Alcotest.test_case "empirical validation" `Quick test_empirical_invalid;
    QCheck_alcotest.to_alcotest prop_of_mean_scv_roundtrip;
    QCheck_alcotest.to_alcotest prop_residual_consistent;
    Alcotest.test_case "sample raises what validate reports" `Quick test_hostile_sample_raises;
  ]
