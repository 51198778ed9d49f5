(* Tests for lopc_numerics: roots, fixed points, polynomials, linear. *)

module Roots = Lopc_numerics.Roots
module Fixed_point = Lopc_numerics.Fixed_point
module Polynomial = Lopc_numerics.Polynomial
module Linear = Lopc_numerics.Linear
module Minimize = Lopc_numerics.Minimize

let feq tol = Alcotest.(check (float tol))

let test_bisect_sqrt2 () =
  let r = Roots.bisect ~f:(fun x -> (x *. x) -. 2.) 0. 2. in
  feq 1e-8 "sqrt 2" (sqrt 2.) r

let test_bisect_no_bracket () =
  Alcotest.check_raises "no bracket" Roots.No_bracket (fun () ->
      ignore (Roots.bisect ~f:(fun x -> (x *. x) +. 1.) (-1.) 1.))

let test_brent_cos () =
  let r = Roots.brent ~f:cos 1. 2. in
  feq 1e-10 "pi/2" (2. *. atan 1.) r

let test_brent_endpoint_root () =
  feq 0. "root at lo" 3. (Roots.brent ~f:(fun x -> x -. 3.) 3. 10.)

let test_brent_steep () =
  (* A function with very different scales on each side. *)
  let f x = exp x -. 1e6 in
  let r = Roots.brent ~f 0. 30. in
  feq 1e-6 "log 1e6" (log 1e6) r

let test_expand_bracket () =
  (* The root lies ten expansions above the start. *)
  let f x = x -. 1000. in
  feq 1e-9 "root above the start" 1000. (Roots.brent_above ~f 0.);
  feq 0. "root at the start" 3. (Roots.brent_above ~f:(fun x -> x -. 3.) 3.);
  Alcotest.check_raises "no sign change" Roots.No_bracket (fun () ->
      ignore (Roots.brent_above ~f:(fun x -> x +. 1.) 0.))

let scalar_converged ?damping ~f x0 =
  match Fixed_point.solve_scalar_status ?damping ~f x0 with
  | x, Fixed_point.Converged _ -> x
  | _, status ->
    Alcotest.failf "expected convergence, got %s" (Fixed_point.status_to_string status)

let test_fixed_point_scalar () =
  (* x = cos x has the Dottie number as fixed point. *)
  let r = scalar_converged ~f:cos 1. in
  feq 1e-8 "dottie" 0.7390851332151607 r

let test_fixed_point_damped () =
  (* x = 4 − x has fixed point 2 but plain iteration oscillates forever
     between x0 and 4 − x0; damping 1/2 lands on it in one step. *)
  let r = scalar_converged ~damping:0.5 ~f:(fun x -> 4. -. x) 0. in
  feq 1e-8 "fixed point 2" 2. r

let test_fixed_point_vector () =
  (* Rotation-like contraction toward (1, 2). *)
  let f v = [| 1. +. (0.5 *. (v.(1) -. 2.)); 2. +. (0.25 *. (v.(0) -. 1.)) |] in
  let { Fixed_point.value; _ }, status = Fixed_point.solve_vector_status ~f [| 0.; 0. |] in
  Alcotest.(check bool) "converged" true
    (match status with Fixed_point.Converged _ -> true | _ -> false);
  feq 1e-6 "x" 1. value.(0);
  feq 1e-6 "y" 2. value.(1)

let test_fixed_point_diverged () =
  (* x = 2x + 1 repels from its fixed point −1: the iterate doubles away
     and [max_iter] ends the run with a finite residual. *)
  match Fixed_point.solve_scalar_status ~max_iter:50 ~f:(fun x -> (2. *. x) +. 1.) 1. with
  | _, Fixed_point.Diverged { iters; residual } ->
    Alcotest.(check int) "all iterations used" 50 iters;
    Alcotest.(check bool) "finite residual" true (Float.is_finite residual && residual > 0.)
  | _, status ->
    Alcotest.failf "expected divergence, got %s" (Fixed_point.status_to_string status)

let test_fixed_point_above_non_finite () =
  (* A map that blows up must come back as Diverged with a nan residual,
     never as a Converged nan: at the lower bound itself, further up the
     bracket search, and for a non-finite lower bound. *)
  let expect_diverged name ~f lb =
    match Fixed_point.solve_above_status ~f lb with
    | r, Fixed_point.Diverged { residual; _ } ->
      Alcotest.(check bool) (name ^ ": lower bound returned") true (Float.equal r lb);
      Alcotest.(check bool) (name ^ ": nan residual") true (Float.is_nan residual)
    | r, status ->
      Alcotest.failf "%s: expected Diverged, got %s (r = %g)" name
        (Fixed_point.status_to_string status) r
  in
  expect_diverged "nan at lb" ~f:(fun _ -> Float.nan) 1.;
  expect_diverged "inf at lb" ~f:(fun _ -> Float.infinity) 1.;
  expect_diverged "-inf at lb" ~f:(fun _ -> Float.neg_infinity) 1.;
  expect_diverged "nan above lb" ~f:(fun r -> if r > 4. then Float.nan else 100.) 1.;
  expect_diverged "infinite lb" ~f:(fun r -> r) Float.infinity;
  expect_diverged "nan lb" ~f:(fun r -> r) Float.nan

let test_poly_eval () =
  let p = Polynomial.of_coeffs [| 1.; -2.; 1. |] in
  (* (x-1)^2 *)
  feq 0. "at 1" 0. (Polynomial.eval p 1.);
  feq 0. "at 3" 4. (Polynomial.eval p 3.);
  Alcotest.(check int) "degree" 2 (Harness.poly_degree p)

let test_poly_trim () =
  let p = Polynomial.of_coeffs [| 1.; 2.; 0.; 0. |] in
  Alcotest.(check int) "trimmed degree" 1 (Harness.poly_degree p)

let test_poly_derivative () =
  let p = Polynomial.of_coeffs [| 5.; 3.; 2. |] in
  let d = Polynomial.derivative p in
  Alcotest.(check (array (float 0.))) "derivative" [| 3.; 4. |] (d :> float array)

(* Coefficient arithmetic on the trimmed representation, lowest order
   first; results are plain arrays. *)
let coeffs (p : Polynomial.t) = (p :> float array)

let poly_add a b =
  let a = coeffs a and b = coeffs b in
  let get p i = if i < Array.length p then p.(i) else 0. in
  coeffs
    (Polynomial.of_coeffs
       (Array.init (max (Array.length a) (Array.length b)) (fun i -> get a i +. get b i)))

let poly_mul a b =
  let a = coeffs a and b = coeffs b in
  let out = Array.make (Array.length a + Array.length b - 1) 0. in
  Array.iteri (fun i ai -> Array.iteri (fun j bj -> out.(i + j) <- out.(i + j) +. (ai *. bj)) b) a;
  coeffs (Polynomial.of_coeffs out)

let poly_scale k p = coeffs (Polynomial.of_coeffs (Array.map (fun c -> k *. c) (coeffs p)))

let test_poly_arith () =
  let a = Polynomial.of_coeffs [| 1.; 1. |] in
  let b = Polynomial.of_coeffs [| -1.; 1. |] in
  Alcotest.(check (array (float 0.))) "(x+1)(x-1)" [| -1.; 0.; 1. |]
    (poly_mul a b);
  Alcotest.(check (array (float 0.))) "sum" [| 0.; 2. |]
    (poly_add a b);
  Alcotest.(check (array (float 0.))) "scale" [| 2.; 2. |]
    (poly_scale 2. a)


let check_roots expected actual =
  Alcotest.(check int) "root count" (Array.length expected) (Array.length actual);
  Array.iteri (fun i e -> feq 1e-6 (Printf.sprintf "root %d" i) e actual.(i)) expected

let test_quadratic_roots () =
  check_roots [| 2.; 3. |] (Polynomial.real_roots (Harness.poly_of_roots [| 3.; 2. |]))

let test_quadratic_no_real_roots () =
  Alcotest.(check int) "no roots" 0
    (Array.length (Polynomial.real_roots (Polynomial.of_coeffs [| 1.; 0.; 1. |])))

let test_cubic_three_roots () =
  check_roots [| -2.; 1.; 5. |]
    (Polynomial.real_roots (Harness.poly_of_roots [| 1.; 5.; -2. |]))

let test_cubic_one_root () =
  (* x³ − 1 = 0 has one real root. *)
  check_roots [| 1. |] (Polynomial.real_roots (Polynomial.of_coeffs [| -1.; 0.; 0.; 1. |]))

let test_quartic_four_roots () =
  check_roots [| -3.; -1.; 2.; 4. |]
    (Polynomial.real_roots (Harness.poly_of_roots [| 2.; -1.; 4.; -3. |]))

let test_quartic_biquadratic () =
  (* x⁴ − 5x² + 4 = (x²−1)(x²−4). *)
  check_roots [| -2.; -1.; 1.; 2. |]
    (Polynomial.real_roots (Polynomial.of_coeffs [| 4.; 0.; -5.; 0.; 1. |]))

let test_quartic_no_real_roots () =
  Alcotest.(check int) "no roots" 0
    (Array.length (Polynomial.real_roots (Polynomial.of_coeffs [| 1.; 0.; 0.; 0.; 1. |])))

let test_quintic_subdivision () =
  check_roots [| -2.; -1.; 0.5; 1.5; 3.; 6. |]
    (Polynomial.real_roots (Harness.poly_of_roots [| -2.; -1.; 0.5; 1.5; 3.; 6. |]))

let prop_of_roots_recovered =
  QCheck.Test.make ~name:"real_roots recovers well-separated roots (deg <= 4)" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 4) (int_range (-40) 40))
    (fun ints ->
      (* Build distinct, well-separated integer roots. *)
      let distinct = List.sort_uniq compare ints in
      let roots = Array.of_list (List.map Float.of_int distinct) in
      let found = Polynomial.real_roots (Harness.poly_of_roots roots) in
      Array.length found = Array.length roots
      && Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-5) roots found)

let prop_roots_are_roots =
  QCheck.Test.make ~name:"claimed roots evaluate to ~0" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 5) (float_range (-10.) 10.))
    (fun coeffs ->
      let p = Polynomial.of_coeffs (Array.of_list coeffs) in
      if Harness.poly_degree p = 0 then true
      else begin
        let scale =
          Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 1.
            (p :> float array)
        in
        Array.for_all
          (fun r ->
            let v = Polynomial.eval p r in
            Float.abs v <= 1e-4 *. scale *. Float.max 1. (Float.abs r ** Float.of_int (Harness.poly_degree p)))
          (Polynomial.real_roots p)
      end)

let test_golden_section_parabola () =
  let m = Minimize.golden_section ~f:(fun x -> ((x -. 3.) ** 2.) +. 1.) (-10.) 10. in
  feq 1e-6 "parabola minimum" 3. m

let test_golden_section_asymmetric () =
  let m = Minimize.golden_section ~f:(fun x -> Float.abs (x -. 0.1)) 0. 100. in
  feq 1e-5 "absolute value kink" 0.1 m

let test_nelder_mead_sphere () =
  let { Minimize.minimizer; value; _ } =
    Minimize.nelder_mead
      ~f:(fun v -> ((v.(0) -. 1.) ** 2.) +. ((v.(1) +. 2.) ** 2.))
      [| 5.; 5. |]
  in
  feq 1e-4 "x" 1. minimizer.(0);
  feq 1e-4 "y" (-2.) minimizer.(1);
  feq 1e-6 "value" 0. value

let test_nelder_mead_rosenbrock () =
  let rosenbrock v =
    ((1. -. v.(0)) ** 2.) +. (100. *. ((v.(1) -. (v.(0) *. v.(0))) ** 2.))
  in
  let { Minimize.minimizer; _ } =
    Minimize.nelder_mead ~max_iter:20_000 ~f:rosenbrock [| -1.2; 1. |]
  in
  feq 1e-3 "rosenbrock x" 1. minimizer.(0);
  feq 1e-3 "rosenbrock y" 1. minimizer.(1)

let test_nelder_mead_1d () =
  let { Minimize.minimizer; _ } =
    Minimize.nelder_mead ~f:(fun v -> Float.abs (v.(0) -. 7.)) [| 0. |]
  in
  feq 1e-4 "1-d" 7. minimizer.(0)

let test_nelder_mead_empty () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Minimize.nelder_mead ~f:(fun _ -> 0.) [||]);
       false
     with Invalid_argument _ -> true)

let test_linear_solve () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Linear.solve a [| 5.; 10. |] in
  feq 1e-9 "x0" 1. x.(0);
  feq 1e-9 "x1" 3. x.(1)

let test_linear_solve_pivoting () =
  (* Zero on the diagonal forces a pivot. *)
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linear.solve a [| 2.; 7. |] in
  feq 1e-12 "x0" 7. x.(0);
  feq 1e-12 "x1" 2. x.(1)

let test_linear_singular () =
  Alcotest.check_raises "singular" Linear.Singular (fun () ->
      ignore (Linear.solve [| [| 1.; 2. |]; [| 2.; 4. |] |] [| 1.; 2. |]))

let test_mat_vec () =
  let y = Harness.mat_vec [| [| 1.; 2. |]; [| 3.; 4. |] |] [| 1.; 1. |] in
  Alcotest.(check (array (float 1e-12))) "product" [| 3.; 7. |] y

(* Stationary row vector of an irreducible row-stochastic matrix by power
   iteration. *)
let stationary_distribution ?(tol = 1e-12) p =
  let n = Array.length p in
  if n = 0 then invalid_arg "Linear.stationary_distribution: empty matrix";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Linear.stationary_distribution: not square";
      let sum = Array.fold_left ( +. ) 0. row in
      Array.iter
        (fun v ->
          if v < 0. then invalid_arg "Linear.stationary_distribution: negative entry")
        row;
      if Float.abs (sum -. 1.) > 1e-6 then
        invalid_arg "Linear.stationary_distribution: row does not sum to 1")
    p;
  let pi = ref (Array.make n (1. /. Float.of_int n)) in
  let next = Array.make n 0. in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 100_000 do
    incr iter;
    Array.fill next 0 n 0.;
    Array.iteri
      (fun i v -> Array.iteri (fun j pij -> next.(j) <- next.(j) +. (v *. pij)) p.(i))
      !pi;
    let diff = ref 0. in
    Array.iteri (fun j v -> diff := Float.max !diff (Float.abs (v -. !pi.(j)))) next;
    Array.blit next 0 !pi 0 n;
    if !diff <= tol then converged := true
  done;
  !pi

let test_stationary_distribution () =
  (* Two-state chain: stay 0.9/leave 0.1 vs stay 0.8/leave 0.2:
     pi = (2/3, 1/3). *)
  let p = [| [| 0.9; 0.1 |]; [| 0.2; 0.8 |] |] in
  let pi = stationary_distribution p in
  feq 1e-8 "pi0" (2. /. 3.) pi.(0);
  feq 1e-8 "pi1" (1. /. 3.) pi.(1)


let test_stationary_invalid () =
  Alcotest.(check bool) "row sum check" true
    (try
       ignore (stationary_distribution [| [| 0.5; 0.2 |]; [| 0.5; 0.5 |] |]);
       false
     with Invalid_argument _ -> true)


let prop_linear_roundtrip =
  QCheck.Test.make ~name:"solve(a, a*x) = x for diagonally dominant a" ~count:200
    QCheck.(list_of_size (Gen.return 9) (float_range (-1.) 1.))
    (fun entries ->
      let e = Array.of_list entries in
      let n = 3 in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let v = e.((i * n) + j) in
                if i = j then v +. 4. else v))
      in
      let x = [| 1.; -2.; 0.5 |] in
      let b = Harness.mat_vec a x in
      let x' = Linear.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) x x')

let suite =
  [
    Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
    Alcotest.test_case "bisect requires bracket" `Quick test_bisect_no_bracket;
    Alcotest.test_case "brent cos" `Quick test_brent_cos;
    Alcotest.test_case "brent endpoint root" `Quick test_brent_endpoint_root;
    Alcotest.test_case "brent steep function" `Quick test_brent_steep;
    Alcotest.test_case "expand bracket upward" `Quick test_expand_bracket;
    Alcotest.test_case "fixed point scalar" `Quick test_fixed_point_scalar;
    Alcotest.test_case "fixed point damped oscillation" `Quick test_fixed_point_damped;
    Alcotest.test_case "fixed point vector" `Quick test_fixed_point_vector;
    Alcotest.test_case "fixed point divergence detected" `Quick test_fixed_point_diverged;
    Alcotest.test_case "fixed point above: non-finite is diverged" `Quick
      test_fixed_point_above_non_finite;
    Alcotest.test_case "polynomial eval" `Quick test_poly_eval;
    Alcotest.test_case "polynomial trim" `Quick test_poly_trim;
    Alcotest.test_case "polynomial derivative" `Quick test_poly_derivative;
    Alcotest.test_case "polynomial arithmetic" `Quick test_poly_arith;
    Alcotest.test_case "quadratic roots" `Quick test_quadratic_roots;
    Alcotest.test_case "quadratic without real roots" `Quick test_quadratic_no_real_roots;
    Alcotest.test_case "cubic three roots" `Quick test_cubic_three_roots;
    Alcotest.test_case "cubic one root" `Quick test_cubic_one_root;
    Alcotest.test_case "quartic four roots" `Quick test_quartic_four_roots;
    Alcotest.test_case "quartic biquadratic" `Quick test_quartic_biquadratic;
    Alcotest.test_case "quartic without real roots" `Quick test_quartic_no_real_roots;
    Alcotest.test_case "quintic via subdivision" `Quick test_quintic_subdivision;
    QCheck_alcotest.to_alcotest prop_of_roots_recovered;
    QCheck_alcotest.to_alcotest prop_roots_are_roots;
    Alcotest.test_case "golden section parabola" `Quick test_golden_section_parabola;
    Alcotest.test_case "golden section kink" `Quick test_golden_section_asymmetric;
    Alcotest.test_case "nelder-mead sphere" `Quick test_nelder_mead_sphere;
    Alcotest.test_case "nelder-mead rosenbrock" `Quick test_nelder_mead_rosenbrock;
    Alcotest.test_case "nelder-mead 1-d" `Quick test_nelder_mead_1d;
    Alcotest.test_case "nelder-mead empty input" `Quick test_nelder_mead_empty;
    Alcotest.test_case "linear solve" `Quick test_linear_solve;
    Alcotest.test_case "linear solve with pivoting" `Quick test_linear_solve_pivoting;
    Alcotest.test_case "linear singular detection" `Quick test_linear_singular;
    Alcotest.test_case "mat_vec" `Quick test_mat_vec;
    Alcotest.test_case "stationary distribution" `Quick test_stationary_distribution;
    Alcotest.test_case "stationary rejects bad matrix" `Quick test_stationary_invalid;
    QCheck_alcotest.to_alcotest prop_linear_roundtrip;
  ]
