(* Test runner: aggregates all suites into one alcotest executable. *)

let () =
  Alcotest.run "lopc"
    [
      ("prng", Test_prng.suite);
      ("dist", Test_dist.suite);
      ("stats", Test_stats.suite);
      ("numerics", Test_numerics.suite);
      ("mva", Test_mva.suite);
      ("eventsim", Test_eventsim.suite);
      ("topology", Test_topology.suite);
      ("markov", Test_markov.suite);
      ("activemsg", Test_activemsg.suite);
      ("fault", Test_fault.suite);
      ("lopc", Test_lopc.suite);
      ("general", Test_general.suite);
      ("workloads", Test_workloads.suite);
      ("integration", Test_integration.suite);
      ("parallel", Test_parallel.suite);
      ("robust", Test_robust.suite);
      ("obs", Test_obs.suite);
      ("lint", Test_lint.suite);
      ("lint_typed", Test_lint_typed.suite);
      ("absint", Test_absint.suite);
    ]
