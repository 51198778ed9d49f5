(* The pairwise comparison behind `lopc_bench.exe compare`. *)

open Perfbench_lib

let close = Alcotest.float 1e-12

let win_rate () =
  let a = [ 10.; 10.; 10.; 10. ] and b = [ 9.; 11.; 10.; 8. ] in
  Alcotest.check close "lower wins, tie counts for neither" 0.5 (Stats.win_rate Stats.Lower a b);
  Alcotest.check close "higher" 0.25 (Stats.win_rate Stats.Higher a b);
  Alcotest.check close "pairs beyond the shorter side ignored" 1.
    (Stats.win_rate Stats.Lower [ 2.; 2.; 0. ] [ 1.; 1. ])

let verdict () =
  let parent = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ] in
  let check name expected better b =
    Alcotest.(check string) name
      (Stats.string_of_verdict expected)
      (Stats.string_of_verdict (Stats.verdict better ~bound:0.1 parent b))
  in
  check "same runs" Stats.Within_bound Stats.Lower parent;
  check "every run faster" Stats.Improved Stats.Lower (List.map (fun x -> x -. 20.) parent);
  check "throughput up" Stats.Improved Stats.Higher (List.map (fun x -> x +. 20.) parent);
  check "slower past the bound" Stats.Regressed Stats.Lower (List.map (fun x -> x +. 20.) parent);
  check "noisier than the bound" Stats.Unresolved Stats.Lower
    [ 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. ];
  check "noisy but every run better" Stats.Improved Stats.Lower
    [ 10.; 50.; 20.; 40.; 30.; 15.; 45.; 25.; 35.; 30. ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "win rate" `Quick win_rate;
          Alcotest.test_case "verdict" `Quick verdict;
        ] );
    ]
