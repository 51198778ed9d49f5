(* Tests for lopc_analysis: each seeded rule fires on a violating fixture
   with the right rule id and line number, stays silent on a clean fixture,
   and [@lint.allow] suppressions are honoured. *)

module Finding = Lopc_analysis.Finding
module Rule = Lopc_analysis.Rule
module Driver = Lopc_analysis.Driver
module Ast_rules = Lopc_analysis.Ast_rules
module Project_rules = Lopc_analysis.Project_rules

(* (rule id, line) pairs, in report order, from linting [src] as [path] with
   only [rule] active (so fixtures stay focused on the rule under test). *)
let lint_one rule ~path src =
  Driver.lint_source ~rules:[ rule ] ~path src
  |> List.map (fun (f : Finding.t) -> (f.rule, Finding.line f))

let lint_all ~path src =
  Driver.lint_source ~path src
  |> List.map (fun (f : Finding.t) -> (f.rule, Finding.line f))

let hits = Alcotest.(check (list (pair string int)))

(* --- float-equality ----------------------------------------------------- *)

let test_float_equality_fires () =
  let src =
    "let f x = x = 1.0\n" ^ "let g y = y <> sqrt 2.\n"
    ^ "let h a b = compare (Float.abs a) b"
  in
  hits "three float comparisons"
    [ ("float-equality", 1); ("float-equality", 2); ("float-equality", 3) ]
    (lint_one Ast_rules.float_equality ~path:"bin/fixture.ml" src)

let test_float_equality_silent () =
  let src =
    "let f x y = Float.equal x y\n" ^ "let g x = x = 1\n" ^ "let h s = s = \"a\"\n"
    ^ "let i x = Float.abs (x -. 1.) < 1e-9\n"
    ^ "let j x = Float.classify_float x = FP_zero"
  in
  hits "int/string equality, tolerance and classified tests are clean" []
    (lint_one Ast_rules.float_equality ~path:"bin/fixture.ml" src)

(* --- unguarded-division ------------------------------------------------- *)

let test_unguarded_division_fires () =
  let src =
    "let f w u = w /. (1. -. u)\n" ^ "let g w u =\n"
    ^ "  let denom = 1. -. u -. (u *. u) in\n" ^ "  w /. denom"
  in
  hits "direct and let-bound saturation denominators"
    [ ("unguarded-division", 1); ("unguarded-division", 4) ]
    (lint_one Ast_rules.unguarded_division ~path:"bin/fixture.ml" src)

let test_unguarded_division_silent () =
  let src =
    "let f w u = if u >= 1. then infinity else w /. (1. -. u)\n" ^ "let g w u =\n"
    ^ "  if u >= 1. then invalid_arg \"saturated\";\n" ^ "  w /. (1. -. u)\n"
    ^ "let h w u = w /. Float.max 1e-9 (1. -. u)\n" ^ "let i w u = w /. u"
  in
  hits "guarded, sequence-guarded, clamped and plain divisions are clean" []
    (lint_one Ast_rules.unguarded_division ~path:"bin/fixture.ml" src)

(* --- global-rng --------------------------------------------------------- *)

let test_global_rng_fires () =
  let src = "let () = Random.self_init ()\n" ^ "let x = Stdlib.Random.float 1.0" in
  hits "global Random use outside lib/prng"
    [ ("global-rng", 1); ("global-rng", 2) ]
    (lint_one Ast_rules.global_rng ~path:"lib/core/fixture.ml" src)

let test_global_rng_exempt_in_prng () =
  let src = "let x = Random.bits ()" in
  hits "lib/prng may touch the raw RNG" []
    (lint_one Ast_rules.global_rng ~path:"lib/prng/fixture.ml" src);
  hits "explicit rng threading is clean" []
    (lint_one Ast_rules.global_rng ~path:"lib/core/fixture.ml"
       "let f rng = Lopc_prng.Rng.float rng 1.0")

(* --- physical-equality -------------------------------------------------- *)

let test_physical_equality_fires () =
  let src = "let f a b = a == b\n" ^ "let g a b = a != b" in
  hits "== and != on non-unit values"
    [ ("physical-equality", 1); ("physical-equality", 2) ]
    (lint_one Ast_rules.physical_equality ~path:"bin/fixture.ml" src)

let test_physical_equality_silent () =
  let src = "let f r = r == ()\n" ^ "let g a b = a = b" in
  hits "unit sentinel and structural equality are clean" []
    (lint_one Ast_rules.physical_equality ~path:"bin/fixture.ml" src)

(* --- banned-constructs -------------------------------------------------- *)

let test_banned_constructs_fires () =
  let src =
    "let f x = Obj.magic x\n" ^ "let g () = exit 1\n"
    ^ "let h () = Printf.printf \"boom\""
  in
  hits "Obj.magic, exit and printf inside lib/"
    [ ("banned-constructs", 1); ("banned-constructs", 2); ("banned-constructs", 3) ]
    (lint_one Ast_rules.banned_constructs ~path:"lib/core/fixture.ml" src)

let test_banned_constructs_executables_may_exit () =
  let src = "let g () = exit 1\n" ^ "let h () = Printf.printf \"ok\"" in
  hits "exit and printf are fine in executables" []
    (lint_one Ast_rules.banned_constructs ~path:"bin/fixture.ml" src)

(* --- bare-failwith ------------------------------------------------------ *)

let test_bare_failwith_fires () =
  let src =
    "let f () = failwith \"boom\"\n" ^ "let g () = raise (Failure \"boom\")\n"
    ^ "let h msg = raise_notrace (Failure msg)"
  in
  hits "failwith and raised Failure inside lib/"
    [ ("bare-failwith", 1); ("bare-failwith", 2); ("bare-failwith", 3) ]
    (lint_one Ast_rules.bare_failwith ~path:"lib/core/fixture.ml" src)

let test_bare_failwith_silent () =
  let src =
    "let f () = invalid_arg \"bad input\"\n"
    ^ "let g x = match x with Some v -> v | None -> raise Not_found\n"
    ^ "let h x = try x () with Failure _ -> 0"
  in
  hits "invalid_arg, other exceptions and Failure handlers are clean" []
    (lint_one Ast_rules.bare_failwith ~path:"lib/core/fixture.ml" src);
  hits "executables may failwith" []
    (lint_one Ast_rules.bare_failwith ~path:"bin/fixture.ml"
       "let f () = failwith \"boom\"")

(* --- missing-mli -------------------------------------------------------- *)

(* Runs [f] from inside a fresh temporary directory containing lib/with.ml,
   lib/with.mli and lib/without.ml, so the sibling-interface lookup sees a
   real file system. *)
let in_fixture_tree f =
  let tmp = Filename.temp_file "lopc_lint_test" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Sys.mkdir (Filename.concat tmp "lib") 0o755;
  let write name contents =
    let oc = open_out (Filename.concat tmp name) in
    output_string oc contents;
    close_out oc
  in
  write "lib/with.ml" "let x = 1\n";
  write "lib/with.mli" "val x : int\n";
  write "lib/without.ml" "let x = 1\n";
  let old = Sys.getcwd () in
  Sys.chdir tmp;
  Fun.protect ~finally:(fun () -> Sys.chdir old) f

let test_missing_mli_fires () =
  in_fixture_tree (fun () ->
      hits "library module with no interface"
        [ ("missing-mli", 1) ]
        (lint_one Project_rules.missing_mli ~path:"lib/without.ml" "let x = 1");
      hits "sibling interface present" []
        (lint_one Project_rules.missing_mli ~path:"lib/with.ml" "let x = 1"))

let test_missing_mli_ignores_executables () =
  hits "executables need no interface" []
    (lint_one Project_rules.missing_mli ~path:"bin/fixture.ml" "let x = 1")

(* --- suppression -------------------------------------------------------- *)

let test_suppression () =
  hits "expression-level justified [@lint.allow]" []
    (lint_all ~path:"bin/fixture.ml"
       {|let f x = (x = 1.0 [@lint.allow "float-equality" "fixture"])|});
  hits "binding-level justified [@@lint.allow]" []
    (lint_all ~path:"bin/fixture.ml"
       "let f w u = w /. (1. -. u)\n[@@lint.allow \"unguarded-division\" \"fixture\"]");
  hits "file-level justified [@@@lint.allow]" []
    (lint_all ~path:"bin/fixture.ml"
       "[@@@lint.allow \"float-equality\" \"fixture\"]\n\
        let f x = x = 1.0\n\
        let g y = y <> 2.");
  (* A suppression only silences the rule it names. *)
  hits "unrelated suppression does not mask"
    [ ("float-equality", 1) ]
    (lint_all ~path:"bin/fixture.ml"
       {|let f x = (x = 1.0 [@lint.allow "unguarded-division" "fixture"])|})

let test_bare_suppression () =
  (* The legacy one-string form still suppresses its rule, but is itself
     reported — an unjustified exemption is a finding. *)
  hits "bare form suppresses but is flagged"
    [ ("bare-suppression", 1) ]
    (lint_all ~path:"bin/fixture.ml"
       {|let f x = (x = 1.0 [@lint.allow "float-equality"])|});
  (* An empty justification does not count as one. *)
  hits "whitespace justification is still bare"
    [ ("bare-suppression", 1) ]
    (lint_all ~path:"bin/fixture.ml"
       {|let f x = (x = 1.0 [@lint.allow "float-equality" "  "])|});
  (* bare-suppression findings cannot excuse themselves: only a justified
     region may suppress them. *)
  hits "bare region cannot self-suppress"
    [ ("bare-suppression", 1); ("bare-suppression", 2) ]
    (lint_all ~path:"bin/fixture.ml"
       "[@@@lint.allow \"bare-suppression\"]\n\
        let f x = (x = 1.0 [@lint.allow \"float-equality\"])");
  hits "justified region may suppress bare-suppression" []
    (lint_all ~path:"bin/fixture.ml"
       "[@@@lint.allow \"bare-suppression\" \"legacy sites migrate next release\"]\n\
        let f x = (x = 1.0 [@lint.allow \"float-equality\"])")

(* --- driver ------------------------------------------------------------- *)

let test_catalogue () =
  let ids = List.map (fun (r : Rule.t) -> r.id) Driver.default_rules in
  Alcotest.(check (list string))
    "the seven seeded rules, in catalogue order"
    [
      "float-equality";
      "unguarded-division";
      "global-rng";
      "physical-equality";
      "banned-constructs";
      "bare-failwith";
      "missing-mli";
    ]
    ids

let test_parse_error () =
  match Driver.lint_source ~path:"bin/fixture.ml" "let let let" with
  | [ f ] -> Alcotest.(check string) "parse-error finding" "parse-error" f.Finding.rule
  | fs -> Alcotest.failf "expected one parse-error finding, got %d" (List.length fs)

let test_json_report () =
  let findings = Driver.lint_source ~path:"bin/fixture.ml" "let f x = x = 1.0" in
  let json = Format.asprintf "%a" (fun ppf -> Driver.report ppf ~format:Driver.Json) findings in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json names the rule" true (contains {|"rule":"float-equality"|});
  Alcotest.(check bool) "json carries the line" true (contains {|"line":1|});
  Alcotest.(check bool) "json counts findings" true (contains {|"count": 1|})

let test_sarif_report () =
  let findings =
    Driver.lint_source ~path:"bin/fixture.ml"
      "let f x = x = 1.0\nlet g w u = w /. (1. -. u)"
  in
  let render () =
    Format.asprintf "%a" (fun ppf -> Driver.report ppf ~format:Driver.Sarif) findings
  in
  let sarif = render () in
  Alcotest.(check string) "sarif rendering is byte-stable" sarif (render ());
  let contains needle =
    let nl = String.length needle and jl = String.length sarif in
    let rec go i = i + nl <= jl && (String.sub sarif i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sarif version" true (contains {|"version": "2.1.0"|});
  Alcotest.(check bool) "rule id" true (contains {|"ruleId": "float-equality"|});
  Alcotest.(check bool) "rule metadata is present" true
    (contains {|"id": "unguarded-division"|});
  Alcotest.(check bool) "columns are 1-based" true
    (contains {|"startLine": 1, "startColumn": 11|})

(* --- deterministic merge of the parallel syntactic stage ----------------- *)

(* A hermetic source tree seeded with findings in every file, so the merge
   actually has something to order. The comments and string literals are
   load-bearing: they drive the compiler-libs lexer through its global
   string/comment buffers, which is exactly the state a non-serialised
   parallel parse races on (lexer.mll assertion failures). Keep the files
   big enough that 8 domains genuinely overlap. *)
let with_seeded_tree f =
  let dir = Filename.temp_file "lopc_lint_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      for i = 0 to 23 do
        let path = Filename.concat dir (Printf.sprintf "f%02d.ml" i) in
        Out_channel.with_open_bin path (fun oc ->
            Printf.fprintf oc "let eq%d x = x = %d.0\nlet div%d w u = w /. (1. -. u)\n"
              i i i;
            for j = 0 to 199 do
              Printf.fprintf oc
                "(* comment %d.%d with (* nesting *) and \"quotes\" *)\n\
                 let s%d_%d = \"literal \\\"%d\\\" with escapes\\n\"\n"
                i j i j j
            done)
      done;
      f dir)

let render_json findings =
  Format.asprintf "%a" (fun ppf -> Driver.report ppf ~format:Driver.Json) findings

let test_parallel_merge_identical () =
  with_seeded_tree (fun dir ->
      let sequential = Driver.lint_paths [ dir ] in
      Alcotest.(check bool) "the seeded tree has findings" true (sequential <> []);
      (* Reverse-index execution: proves the merge does not depend on task
         completion order. *)
      let reversed =
        Driver.lint_paths
          ~map_tasks:(fun tasks ->
            let n = Array.length tasks in
            let out = Array.make n [] in
            for i = n - 1 downto 0 do
              out.(i) <- tasks.(i) ()
            done;
            out)
          [ dir ]
      in
      Alcotest.(check string) "reverse-order execution is byte-identical"
        (render_json sequential) (render_json reversed);
      (* And the real worker pool, wired as perfbench's jobs-2 probe wires
         it but with 8 domains — repeated, because a racy parallel parse
         (compiler-libs' lexer state is global) fails intermittently, not
         every run. *)
      for round = 1 to 5 do
        let pooled =
          Driver.lint_paths
            ~map_tasks:(fun tasks ->
              Lopc_repro.Parallel.with_pool ~jobs:8 (fun pool ->
                  Lopc_repro.Parallel.run pool tasks))
            [ dir ]
        in
        Alcotest.(check string)
          (Printf.sprintf "8-domain pool is byte-identical (round %d)" round)
          (render_json sequential) (render_json pooled)
      done)

(* Regression for the serial-prefix fix: [lint_paths] used to read and
   parse every file before the first rule check ran, so extra workers
   only ever added pool overhead and 4 workers benchmarked slower than
   1. With the parse inside each task, worker domains overlap
   parsing with checking and 4 workers must not lose to 1. Wall-clock
   comparison is only meaningful with real parallelism, so single-core
   machines skip the assertion (the byte-identity test above still
   runs). *)
let test_parallel_jobs_speedup () =
  if Domain.recommended_domain_count () >= 2 then
    with_seeded_tree (fun dir ->
        let time_of jobs =
          let best = ref Float.infinity in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            ignore
              (if jobs = 1 then Driver.lint_paths [ dir ]
               else
                 Driver.lint_paths
                   ~map_tasks:(fun tasks ->
                     Lopc_repro.Parallel.with_pool ~jobs (fun pool ->
                         Lopc_repro.Parallel.run pool tasks))
                   [ dir ]);
            best := Float.min !best (Unix.gettimeofday () -. t0)
          done;
          !best
        in
        let serial = time_of 1 in
        let parallel = time_of 4 in
        if parallel >= serial then
          Alcotest.failf "lint with 4 workers (%.1f ms) not faster than 1 (%.1f ms)"
            (1000. *. parallel) (1000. *. serial))

let suite =
  [
    Alcotest.test_case "float-equality fires" `Quick test_float_equality_fires;
    Alcotest.test_case "float-equality silent" `Quick test_float_equality_silent;
    Alcotest.test_case "unguarded-division fires" `Quick test_unguarded_division_fires;
    Alcotest.test_case "unguarded-division silent" `Quick test_unguarded_division_silent;
    Alcotest.test_case "global-rng fires" `Quick test_global_rng_fires;
    Alcotest.test_case "global-rng exempt in prng" `Quick test_global_rng_exempt_in_prng;
    Alcotest.test_case "physical-equality fires" `Quick test_physical_equality_fires;
    Alcotest.test_case "physical-equality silent" `Quick test_physical_equality_silent;
    Alcotest.test_case "banned-constructs fires" `Quick test_banned_constructs_fires;
    Alcotest.test_case "banned-constructs executables" `Quick
      test_banned_constructs_executables_may_exit;
    Alcotest.test_case "bare-failwith fires" `Quick test_bare_failwith_fires;
    Alcotest.test_case "bare-failwith silent" `Quick test_bare_failwith_silent;
    Alcotest.test_case "missing-mli fires" `Quick test_missing_mli_fires;
    Alcotest.test_case "missing-mli ignores executables" `Quick
      test_missing_mli_ignores_executables;
    Alcotest.test_case "suppression" `Quick test_suppression;
    Alcotest.test_case "bare suppression" `Quick test_bare_suppression;
    Alcotest.test_case "rule catalogue" `Quick test_catalogue;
    Alcotest.test_case "parse error" `Quick test_parse_error;
    Alcotest.test_case "json report" `Quick test_json_report;
    Alcotest.test_case "sarif report" `Quick test_sarif_report;
    Alcotest.test_case "parallel merge identical" `Quick test_parallel_merge_identical;
    Alcotest.test_case "parallel jobs speedup" `Quick test_parallel_jobs_speedup;
  ]
