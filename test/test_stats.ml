(* Tests for lopc_stats: Welford, time averages, histograms, samples,
   batch means, error metrics. *)

module Welford = Lopc_stats.Welford
module Time_average = Lopc_stats.Time_average
module Sample = Lopc_stats.Sample
module P2 = Lopc_stats.P2_quantile
module Rng = Lopc_prng.Rng

let feq = Alcotest.(check (float 1e-9))

let test_welford_basic () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  feq "mean" 5. (Welford.mean w);
  feq "variance" (32. /. 7.) (Welford.variance w)

let test_welford_empty () =
  let w = Welford.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Welford.mean w));
  feq "variance 0" 0. (Welford.variance w)

let test_welford_single () =
  let w = Welford.create () in
  Welford.add w 3.;
  feq "mean" 3. (Welford.mean w);
  feq "variance" 0. (Welford.variance w)

let test_welford_rejects_nan () =
  let w = Welford.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Welford.add: non-finite observation")
    (fun () -> Welford.add w Float.nan)

let prop_welford_matches_direct =
  QCheck.Test.make ~name:"welford mean/variance match direct computation" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let n = Float.of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. Float.of_int (List.length xs - 1)
      in
      Float.abs (Welford.mean w -. mean) <= 1e-6 *. Float.max 1. (Float.abs mean)
      && Float.abs (Welford.variance w -. var) <= 1e-6 *. Float.max 1. var)

let test_time_average_piecewise () =
  let ta = Time_average.create () in
  (* 0 on [0,10), 4 on [10,20), 2 on [20,40). *)
  Time_average.update ta ~now:10. 4.;
  Time_average.update ta ~now:20. 2.;
  feq "average" ((0. +. 40. +. 40.) /. 40.) (Time_average.average ta ~now:40.);
  feq "integral" 80. (Time_average.integral ta ~now:40.)

let test_time_average_reset () =
  let ta = Time_average.create ~value:3. () in
  Time_average.update ta ~now:10. 5.;
  Time_average.reset ta ~now:10.;
  feq "value preserved" 5. (Time_average.value ta);
  feq "fresh average" 5. (Time_average.average ta ~now:20.)

let test_time_average_zero_window () =
  (* Averages over a zero-length window are undefined, never 0/0 noise:
     the observability probes rely on [nan] here to mark "no data yet". *)
  let ta = Time_average.create () in
  Alcotest.(check bool) "fresh average is nan" true
    (Float.is_nan (Time_average.average ta ~now:0.));
  Time_average.update ta ~now:0. 7.;
  Alcotest.(check bool) "zero elapsed stays nan" true
    (Float.is_nan (Time_average.average ta ~now:0.));
  feq "integral over empty window" 0. (Time_average.integral ta ~now:0.);
  Time_average.update ta ~now:5. 2.;
  Time_average.reset ta ~now:5.;
  Alcotest.(check bool) "window restarts empty after reset" true
    (Float.is_nan (Time_average.average ta ~now:5.));
  feq "first post-reset average" 2. (Time_average.average ta ~now:6.)

let test_time_average_backwards () =
  let ta = Time_average.create () in
  Time_average.update ta ~now:5. 1.;
  Alcotest.check_raises "backwards" (Invalid_argument "Time_average: time went backwards")
    (fun () -> Time_average.update ta ~now:4. 2.)

let test_histogram_counts () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Histogram.add h) [ -1.; 0.; 1.; 2.5; 5.; 9.99; 10.; 42. ];
  Alcotest.(check int) "total" 8 (Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "bin0" 2 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin1" 1 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin2" 1 (Histogram.bin_count h 2);
  Alcotest.(check int) "bin4" 1 (Histogram.bin_count h 4)


let test_histogram_cdf () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  for i = 0 to 99 do
    Histogram.add h (Float.of_int i /. 10.)
  done;
  let f = Histogram.fraction_below h 5. in
  Alcotest.(check bool) "cdf(5) ~ 0.5" true (Float.abs (f -. 0.5) < 0.02)


let test_sample_quantiles () =
  let s = Sample.of_array [| 5.; 1.; 3.; 2.; 4. |] in
  feq "median" 3. (Sample.median s);
  feq "q0" 1. (Sample.quantile s 0.);
  feq "q1" 5. (Sample.quantile s 1.);
  feq "q.25" 2. (Sample.quantile s 0.25);
  feq "min" 1. (Sample.min s);
  feq "max" 5. (Sample.max s)

let test_sample_interpolation () =
  let s = Sample.of_array [| 0.; 10. |] in
  feq "q 0.3" 3. (Sample.quantile s 0.3)

let test_sample_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Sample.of_array: empty sample")
    (fun () -> ignore (Sample.of_array [||]));
  let s = Sample.of_array [| 1. |] in
  Alcotest.check_raises "bad q" (Invalid_argument "Sample.quantile: q outside [0,1]")
    (fun () -> ignore (Sample.quantile s 1.5))

let test_error_metrics () =
  feq "relative" 0.1 (Error.relative ~predicted:110. ~measured:100.);
  feq "percent" (-37.) (Error.percent ~predicted:63. ~measured:100.);
  feq "absolute" 10. (Error.absolute ~predicted:110. ~measured:100.);
  (* A zero measurement propagates instead of raising. *)
  Alcotest.(check bool) "zero measured is +inf" true
    (Float.equal Float.infinity (Error.relative ~predicted:5. ~measured:0.));
  Alcotest.(check bool) "0/0 is nan" true
    (Float.is_nan (Error.relative ~predicted:0. ~measured:0.))


let test_error_summary () =
  let s =
    Error.summarize ~predicted:[| 106.; 100.; 96. |] ~measured:[| 100.; 100.; 100. |]
  in
  feq "max abs" 6. s.Error.max_abs_percent;
  Alcotest.(check int) "worst index" 0 s.Error.worst_index;
  feq "bias" (2. /. 3.) s.Error.bias_percent;
  feq "mape" (10. /. 3.) s.Error.mean_abs_percent;
  Alcotest.(check int) "nothing skipped" 0 s.Error.skipped


let test_error_summary_skips () =
  (* Degenerate pairs are dropped from the aggregates and counted. *)
  let s = Error.summarize ~predicted:[| 106.; 100. |] ~measured:[| 100.; 0. |] in
  feq "max abs over finite pairs" 6. s.Error.max_abs_percent;
  Alcotest.(check int) "worst index" 0 s.Error.worst_index;
  Alcotest.(check int) "one skipped" 1 s.Error.skipped;
  feq "mape over finite pairs" 6. s.Error.mean_abs_percent;
  let all = Error.summarize ~predicted:[| 1.; 2. |] ~measured:[| 0.; 0. |] in
  Alcotest.(check int) "all skipped" 2 all.Error.skipped;
  Alcotest.(check int) "no worst index" (-1) all.Error.worst_index;
  Alcotest.(check bool) "nan mape" true (Float.is_nan all.Error.mean_abs_percent)


let test_error_summary_invalid () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Error.summarize: length mismatch")
    (fun () -> ignore (Error.summarize ~predicted:[| 1. |] ~measured:[| 1.; 2. |]))


let test_p2_small_sample_exact () =
  let p2 = P2.create ~q:0.5 in
  List.iter (P2.add p2) [ 3.; 1.; 2. ];
  feq "exact median of 3" 2. (P2.estimate p2)

let test_p2_empty () =
  let p2 = P2.create ~q:0.5 in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (P2.estimate p2))

let test_p2_uniform_median () =
  let p2 = P2.create ~q:0.5 in
  let g = Rng.create 11 in
  for _ = 1 to 100_000 do
    P2.add p2 (Rng.float g)
  done;
  Alcotest.(check bool) "median ~ 0.5" true (Float.abs (P2.estimate p2 -. 0.5) < 0.01)

let test_p2_exponential_tail () =
  (* 95th percentile of Exp(1) is -ln(0.05) ~ 2.996. *)
  let p2 = P2.create ~q:0.95 in
  let g = Rng.create 13 in
  for _ = 1 to 200_000 do
    P2.add p2 (Rng.exponential g 1.)
  done;
  let expected = -.log 0.05 in
  Alcotest.(check bool) "p95 of Exp(1)" true
    (Float.abs (P2.estimate p2 -. expected) < 0.1)

let test_p2_vs_exact_sample () =
  (* Against the exact quantile of the same stream. *)
  let g = Rng.create 17 in
  let data = Array.init 50_000 (fun _ -> Harness.gaussian g) in
  let p2 = P2.create ~q:0.9 in
  Array.iter (P2.add p2) data;
  let exact = Sample.quantile (Sample.of_array data) 0.9 in
  Alcotest.(check bool) "p90 close to exact" true (Float.abs (P2.estimate p2 -. exact) < 0.03)

let test_p2_validation () =
  Alcotest.(check bool) "q = 0 rejected" true
    (try
       ignore (P2.create ~q:0.);
       false
     with Invalid_argument _ -> true);
  let p2 = P2.create ~q:0.5 in
  Alcotest.(check bool) "nan rejected" true
    (try
       P2.add p2 Float.nan;
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "welford basic moments" `Quick test_welford_basic;
    Alcotest.test_case "welford empty" `Quick test_welford_empty;
    Alcotest.test_case "welford singleton" `Quick test_welford_single;
    Alcotest.test_case "welford rejects non-finite" `Quick test_welford_rejects_nan;
    QCheck_alcotest.to_alcotest prop_welford_matches_direct;
    Alcotest.test_case "time average piecewise" `Quick test_time_average_piecewise;
    Alcotest.test_case "time average reset" `Quick test_time_average_reset;
    Alcotest.test_case "time average rejects backwards time" `Quick test_time_average_backwards;
    Alcotest.test_case "time average zero-length windows" `Quick test_time_average_zero_window;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram cdf estimate" `Quick test_histogram_cdf;
    Alcotest.test_case "sample quantiles" `Quick test_sample_quantiles;
    Alcotest.test_case "sample interpolation" `Quick test_sample_interpolation;
    Alcotest.test_case "sample invalid input" `Quick test_sample_invalid;
    Alcotest.test_case "error metrics" `Quick test_error_metrics;
    Alcotest.test_case "error summary" `Quick test_error_summary;
    Alcotest.test_case "error summary invalid" `Quick test_error_summary_invalid;
    Alcotest.test_case "error summary skips degenerate pairs" `Quick
      test_error_summary_skips;
    Alcotest.test_case "p2 exact below five samples" `Quick test_p2_small_sample_exact;
    Alcotest.test_case "p2 empty" `Quick test_p2_empty;
    Alcotest.test_case "p2 uniform median" `Quick test_p2_uniform_median;
    Alcotest.test_case "p2 exponential tail" `Quick test_p2_exponential_tail;
    Alcotest.test_case "p2 vs exact sample quantile" `Quick test_p2_vs_exact_sample;
    Alcotest.test_case "p2 validation" `Quick test_p2_validation;
  ]
