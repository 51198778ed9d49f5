(* The replication pool and the determinism contract it carries: every
   task runs exactly once and its result lands by task index whatever the
   claim order, pools are reusable across batches, the lowest-indexed
   exception wins, a shut-down pool refuses every batch, and — the
   property the whole pool hangs on — reproduction tables are
   byte-identical between --jobs 1 and --jobs 8. *)

module Parallel = Lopc_repro.Parallel
module Experiments = Lopc_repro.Experiments
module Table = Lopc_repro.Table

let test_create_rejects_bad_jobs () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Parallel.create: jobs must be at least 1") (fun () ->
      ignore (Parallel.create ~jobs:0 ()))

(* OCaml 5.1 caps live domains at 128: a pool past the cap is refused with
   Invalid_argument, and the workers spawned before the refusal are joined,
   so the next pool still gets its domains. *)
let test_create_past_domain_cap () =
  (match Parallel.create ~jobs:200 () with
  | exception Invalid_argument _ -> ()
  | pool ->
    Parallel.shutdown pool;
    Alcotest.fail "create ~jobs:200 did not raise Invalid_argument");
  Parallel.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (array int)) "a 2-job pool still runs a batch" [| 0; 1; 4; 9 |]
        (Parallel.run pool (Array.init 4 (fun i () -> i * i))))

let test_empty_batch () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "empty batch" 0 (Array.length (Parallel.run pool [||])))

let test_reuse_across_batches () =
  Parallel.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let n = round * 7 in
        let got = Parallel.run pool (Array.init n (fun i () -> i + round)) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init n (fun i -> i + round))
          got
      done)

let test_lowest_index_exception_wins () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 10 do
        let tasks =
          Array.init 32 (fun i () ->
              if i = 7 || i = 23 then failwith (string_of_int i) else i)
        in
        (match Parallel.run pool tasks with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure msg ->
          Alcotest.(check string) "lowest failing index" "7" msg);
        (* The pool survives a failed batch. *)
        Alcotest.(check (array int)) "pool still works" [| 41 |]
          (Parallel.run pool [| (fun () -> 41) |])
      done)

let test_map_preserves_order () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      Alcotest.(check (array int))
        "map is index-ordered"
        (Array.map (fun i -> i * i) input)
        (Parallel.run pool (Array.map (fun i () -> i * i) input)))

(* Index-ordered results cannot reveal a task that ran twice, so each task
   also counts its own runs: exactly-once is the invariant the shared
   cursor carries. *)
let prop_run_is_index_ordered =
  QCheck.Test.make ~name:"run returns results by task index" ~count:50
    QCheck.(pair (int_range 0 96) (int_range 1 8))
    (fun (n, jobs) ->
      Parallel.with_pool ~jobs (fun pool ->
          let runs = Array.init n (fun _ -> Atomic.make 0) in
          let got =
            Parallel.run pool
              (Array.init n (fun i () ->
                   Atomic.incr runs.(i);
                   (i * 31) lxor n))
          in
          got = Array.init n (fun i -> (i * 31) lxor n)
          && Array.for_all (fun r -> Atomic.get r = 1) runs))

(* --- the reproduction determinism contract ------------------------------- *)

let csv_of ~name ~seed ~jobs =
  (* Fresh plan per run: plans capture mutable streams and are single-shot. *)
  let plan = List.assoc name (Experiments.plans ~fidelity:Experiments.Quick ~seed ()) in
  Parallel.with_pool ~jobs (fun pool ->
      Table.to_csv (Experiments.run_plan ~pool plan))

let prop_jobs_invariant name count =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: --jobs 1 and --jobs 8 byte-identical" name)
    ~count
    QCheck.(int_range 0 1000)
    (fun seed ->
      String.equal (csv_of ~name ~seed ~jobs:1) (csv_of ~name ~seed ~jobs:8))

(* A jobs-1 pool spawns no domain, so it is the serial reference path;
   compare it with 8 domains. *)
let test_serial_equals_pooled () =
  let table ~jobs =
    let plan =
      List.assoc "fault" (Experiments.plans ~fidelity:Experiments.Quick ~seed:42 ())
    in
    Parallel.with_pool ~jobs (fun pool -> Table.to_csv (Experiments.run_plan ~pool plan))
  in
  Alcotest.(check string) "serial run_plan = pooled run_plan" (table ~jobs:1)
    (table ~jobs:8)

(* After shutdown every batch is refused, whatever the job count or the
   batch size: the stop check comes before any task is claimed. *)
let test_shut_down_pool_refuses () =
  List.iter
    (fun (jobs, tasks) ->
      let pool = Parallel.create ~jobs () in
      Parallel.shutdown pool;
      Alcotest.check_raises
        (Printf.sprintf "jobs %d, %d task(s)" jobs (Array.length tasks))
        (Invalid_argument "Parallel.run: pool is shut down") (fun () ->
          ignore (Parallel.run pool tasks)))
    [ (1, [||]); (1, [| (fun () -> 1) |]); (2, [||]); (2, [| (fun () -> 1) |]) ]

let suite =
  [
    Alcotest.test_case "create rejects jobs < 1" `Quick test_create_rejects_bad_jobs;
    Alcotest.test_case "empty batch" `Quick test_empty_batch;
    Alcotest.test_case "reuse across batches" `Quick test_reuse_across_batches;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_lowest_index_exception_wins;
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    QCheck_alcotest.to_alcotest prop_run_is_index_ordered;
    Alcotest.test_case "serial = pooled (fault)" `Quick test_serial_equals_pooled;
    QCheck_alcotest.to_alcotest (prop_jobs_invariant "fig5.2" 3);
    QCheck_alcotest.to_alcotest (prop_jobs_invariant "fig6.2" 2);
    QCheck_alcotest.to_alcotest (prop_jobs_invariant "fault" 3);
    Alcotest.test_case "create past the domain cap" `Quick test_create_past_domain_cap;
    Alcotest.test_case "shut-down pool refuses every batch" `Quick
      test_shut_down_pool_refuses;
  ]
