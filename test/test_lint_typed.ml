(* Tests for the typed (stage 2) analyses: each interprocedural rule fires
   on a seeded violating fixture with the right rule id and location, stays
   silent on the corresponding clean fixture, renders its reachability /
   witness chain, and honours justified [@lint.allow] attributes read back
   from the source file. Fixtures are typechecked in-process from strings
   (Typed_fixture.typecheck_string), so no _build tree is needed. *)

module Finding = Lopc_analysis.Finding
module Typed_driver = Lopc_analysis.Typed_driver
module Driver = Lopc_analysis.Driver
module Explain = Lopc_analysis.Explain

let unit_of ?(modname = "Fixture") ?(source = "lib/fixture/fixture.ml") src =
  match Typed_fixture.typecheck_string ~modname ~source src with
  | Ok u -> u
  | Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg

let analyze ?modname ?source src =
  Typed_driver.analyze_units [ unit_of ?modname ?source src ]

let hits name expected findings =
  Alcotest.(check (list (pair string int)))
    name expected
    (List.map (fun (f : Finding.t) -> (f.rule, Finding.line f)) findings)

let message_contains (f : Finding.t) needle =
  let nl = String.length needle and ml = String.length f.message in
  let rec go i = i + nl <= ml && (String.sub f.message i nl = needle || go (i + 1)) in
  go 0

let check_contains name (f : Finding.t) needle =
  if not (message_contains f needle) then
    Alcotest.failf "%s: message %S does not contain %S" name f.message needle

(* --- determinism-taint -------------------------------------------------- *)

let test_taint_wall_clock_fires () =
  let src =
    "let clock () = Sys.time ()\n"
    ^ "let solve_status x = x +. clock ()"
  in
  match analyze src with
  | [ f ] ->
    hits "wall clock reachable from solve_status" [ ("determinism-taint", 1) ] [ f ];
    check_contains "chain names the entry" f "Fixture.solve_status -> Fixture.clock";
    check_contains "source is named" f "Sys.time"
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_taint_unreachable_silent () =
  (* The same source exists but nothing reachable from an entry touches it. *)
  let src =
    "let clock () = Sys.time ()\n"
    ^ "let solve_status x = x +. 1.\n"
    ^ "let _ = clock"
  in
  hits "unreachable wall clock is clean" [] (analyze src)

let test_taint_poly_compare_on_floats () =
  let src =
    "let order (a : float array) = Array.sort compare a\n"
    ^ "let solve_status a = order a; Array.length a"
  in
  match analyze src with
  | [ f ] ->
    hits "polymorphic compare instantiated at float" [ ("determinism-taint", 1) ] [ f ];
    check_contains "float is the reason" f "float"
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_taint_monomorphic_compare_silent () =
  let src =
    "let order (a : float array) = Array.sort Float.compare a\n"
    ^ "let solve_status a = order a; Array.length a"
  in
  hits "Float.compare is deterministic" [] (analyze src)

let test_taint_poly_compare_on_ints_silent () =
  let src =
    "let order (a : int array) = Array.sort compare a\n"
    ^ "let solve_status a = order a; Array.length a"
  in
  hits "polymorphic compare at int is safe" [] (analyze src)

let test_taint_hashtbl_iteration () =
  let src =
    "let total h = Hashtbl.fold (fun _ v acc -> acc +. v) h 0.\n"
    ^ "let solve_status h = total h"
  in
  match analyze src with
  | [ f ] ->
    hits "Hashtbl.fold order leaks into the result" [ ("determinism-taint", 1) ] [ f ];
    check_contains "iteration order is the reason" f "iteration order"
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_taint_global_random () =
  let src =
    "let jitter () = Random.float 1.0\n"
    ^ "let solve_status x = x +. jitter ()"
  in
  hits "global Random reachable from solve_status"
    [ ("determinism-taint", 1) ]
    (analyze src)

let test_taint_record_with_float_field () =
  (* Project type expansion: the comparison is on an abstract-looking record
     whose declaration (same unit) carries a float field. *)
  let src =
    "type obs = { label : string; value : float }\n"
    ^ "let dedup (a : obs) (b : obs) = a = b\n"
    ^ "let solve_status a b = if dedup a b then 1 else 0"
  in
  match analyze src with
  | [ f ] -> hits "float field found by expansion" [ ("determinism-taint", 2) ] [ f ]
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_taint_through_cycle () =
  (* [pong] sits on a cycle with [ping]; the walk reaches it once, so the
     source gives one finding carrying the first-discovered chain. *)
  let src =
    "let rec ping n = if n <= 0 then 0. else pong (n - 1)\n"
    ^ "and pong n = ping n +. Sys.time ()\n"
    ^ "let solve_status n = ping n"
  in
  match analyze src with
  | [ f ] ->
    hits "source behind a cycle" [ ("determinism-taint", 2) ] [ f ];
    check_contains "first-discovered chain" f
      "reachable as Fixture.solve_status -> Fixture.ping -> Fixture.pong"
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

(* --- exn-escape --------------------------------------------------------- *)

let test_exn_escape_fires () =
  let src =
    "let step x = if x > 10. then raise Exit else x +. 1.\n"
    ^ "let solve_status x = step (step x)"
  in
  match analyze src with
  | [ f ] ->
    hits "Exit escapes through a callee" [ ("exn-escape", 1) ] [ f ];
    check_contains "witness chain" f "Fixture.solve_status -> Fixture.step";
    check_contains "exception is named" f "`Exit`"
  | fs -> Alcotest.failf "expected one escape finding, got %d" (List.length fs)

let test_exn_escape_caught_silent () =
  let src =
    "let step x = if x > 10. then raise Exit else x +. 1.\n"
    ^ "let solve_status x = try step x with Exit -> x"
  in
  hits "handled exception does not escape" [] (analyze src)

let test_exn_escape_invalid_arg_allowed () =
  let src = "let solve_status x = if x < 0. then invalid_arg \"negative\" else x" in
  hits "Invalid_argument is the documented contract" [] (analyze src)

let test_exn_escape_stdlib_raiser () =
  let src = "let solve_status tbl k = Hashtbl.find tbl k" in
  match analyze src with
  | [ f ] ->
    hits "Hashtbl.find's Not_found escapes" [ ("exn-escape", 1) ] [ f ];
    check_contains "Not_found named" f "`Not_found`"
  | fs -> Alcotest.failf "expected one escape finding, got %d" (List.length fs)

let test_exn_escape_wildcard_handler_silent () =
  let src =
    "let step x = if x > 10. then raise Exit else x +. 1.\n"
    ^ "let solve_status x = try step x with _ -> x"
  in
  hits "wildcard handler catches everything" [] (analyze src)

let test_exn_escape_mutual_recursion () =
  (* The escape sets of [a] and [b] feed each other; the fixpoint must
     converge and the witness must stop at the raise, not loop. *)
  let src =
    "let rec a x = if x > 0 then b (x - 1) else x\n"
    ^ "and b x = if x > 100 then raise Exit else a x\n"
    ^ "let solve_status x = a x"
  in
  match analyze src with
  | [ f ] ->
    hits "Exit escapes through the cycle" [ ("exn-escape", 2) ] [ f ];
    check_contains "finite witness chain" f
      "Fixture.solve_status -> Fixture.a -> Fixture.b at raise Exit"
  | fs -> Alcotest.failf "expected one escape finding, got %d" (List.length fs)

(* --- rng-stream-discipline ---------------------------------------------- *)

let rng_module =
  "module Rng = struct\n"
  ^ "  type t = { mutable s : int }\n"
  ^ "  let create n = { s = n }\n"
  ^ "  let split t = t.s <- t.s + 1; { s = t.s * 7 }\n"
  ^ "  let float t = t.s <- t.s + 1; Float.of_int t.s\n"
  ^ "end\n"

let test_stream_double_use_fires () =
  let src =
    rng_module
    ^ "let pair rng =\n"
    ^ "  let s = Rng.split rng in\n"
    ^ "  (Rng.float s, Rng.float s)"
  in
  match analyze src with
  | [ f ] ->
    hits "two sequential draws from one child" [ ("rng-stream-discipline", 8) ] [ f ];
    check_contains "binding is named" f "stream `s`"
  | fs -> Alcotest.failf "expected one stream finding, got %d" (List.length fs)

let test_stream_one_split_per_consumer_silent () =
  let src =
    rng_module
    ^ "let pair rng =\n"
    ^ "  let s1 = Rng.split rng in\n"
    ^ "  let s2 = Rng.split rng in\n"
    ^ "  (Rng.float s1, Rng.float s2)"
  in
  hits "one consumer per child is the protocol" [] (analyze src)

let test_stream_branch_arms_are_alternatives () =
  let src =
    rng_module
    ^ "let pick rng c =\n"
    ^ "  let s = Rng.split rng in\n"
    ^ "  if c then Rng.float s else -. (Rng.float s)"
  in
  hits "one use on each branch arm is one use" [] (analyze src)

let test_stream_loop_use_fires () =
  let src =
    rng_module
    ^ "let churn rng =\n"
    ^ "  let s = Rng.split rng in\n"
    ^ "  let acc = ref 0. in\n"
    ^ "  for _ = 1 to 3 do acc := !acc +. Rng.float s done;\n"
    ^ "  !acc"
  in
  hits "a loop body multiplies the use" [ ("rng-stream-discipline", 8) ] (analyze src)

(* --- parallel-rng-capture ------------------------------------------------ *)

let parallel_module =
  "module Parallel = struct\n"
  ^ "  type t = int\n"
  ^ "  let run (_ : t) (tasks : (unit -> 'a) array) =\n"
  ^ "    Array.map (fun f -> f ()) tasks\n"
  ^ "end\n"

let rng_array_module =
  (* rng_module plus split_n, the sanctioned per-task carrier. *)
  rng_module ^ "let split_n rng n = Array.init n (fun _ -> Rng.split rng)\n"

let test_par_capture_fires () =
  let src =
    rng_module ^ parallel_module
    ^ "let noisy pool rng =\n"
    ^ "  Parallel.run pool [| (fun () -> Rng.float rng) |]"
  in
  match analyze src with
  | [ f ] ->
    hits "task drawing from a captured generator" [ ("parallel-rng-capture", 13) ] [ f ];
    check_contains "stream is named" f "`rng`";
    check_contains "scheduling is the reason" f "scheduling"
  | fs -> Alcotest.failf "expected one capture finding, got %d" (List.length fs)

let test_par_capture_split_inside_fires () =
  (* Splitting inside the task is just as order-dependent: the split
     itself advances the shared parent. *)
  let src =
    rng_module ^ parallel_module
    ^ "let noisy pool master =\n"
    ^ "  Parallel.run pool [| (fun () -> let s = Rng.split master in Rng.float s) |]"
  in
  match analyze src with
  | [ f ] ->
    hits "task splitting a captured generator" [ ("parallel-rng-capture", 13) ] [ f ];
    check_contains "the captured parent is named" f "`master`"
  | fs -> Alcotest.failf "expected one capture finding, got %d" (List.length fs)

let test_par_capture_presplit_array_silent () =
  let src =
    rng_array_module ^ parallel_module
    ^ "let quiet pool rng =\n"
    ^ "  let streams = split_n rng 4 in\n"
    ^ "  Parallel.run pool (Array.init 4 (fun i -> fun () -> Rng.float streams.(i)))"
  in
  hits "pre-split stream array is the sanctioned pattern" [] (analyze src)

let test_par_capture_construction_time_silent () =
  (* A draw outside any lambda happens serially while the task array is
     built, before the pool sees it. *)
  let src =
    rng_module ^ parallel_module
    ^ "let quiet pool rng =\n"
    ^ "  let x = Rng.float rng in\n"
    ^ "  Parallel.run pool [| (fun () -> x +. 1.) |]"
  in
  hits "construction-time draws are serial" [] (analyze src)

let test_par_capture_outside_runner_silent () =
  (* The same capture shape anywhere other than a Parallel.run/map
     argument is ordinary single-domain code. *)
  let src =
    rng_module
    ^ "let quiet rng =\n"
    ^ "  let f = fun () -> Rng.float rng in\n"
    ^ "  f () +. f ()"
  in
  hits "closures over streams are fine off the pool" [] (analyze src)

(* --- race rules (effect summaries) --------------------------------------- *)

(* Like [parallel_module], plus the [map] runner the seed analysis must
   treat as a task body even when handed a bare toplevel function. *)
let parallel_module_with_map =
  "module Parallel = struct\n"
  ^ "  type t = int\n"
  ^ "  let run (_ : t) (tasks : (unit -> 'a) array) =\n"
  ^ "    Array.map (fun f -> f ()) tasks\n"
  ^ "  let map (_ : t) (f : 'a -> 'b) (xs : 'a array) = Array.map f xs\n"
  ^ "end\n"

let test_race_captured_write_fires () =
  let src =
    parallel_module_with_map
    ^ "let go pool =\n"
    ^ "  let hits = ref 0 in\n"
    ^ "  Parallel.run pool [| (fun () -> hits := !hits + 1) |]"
  in
  match analyze src with
  | [ f ] ->
    hits "task writing a captured ref" [ ("domain-shared-mutation", 9) ] [ f ];
    check_contains "capture is named" f "`hits`";
    check_contains "scheduling is the reason" f "scheduling"
  | fs -> Alcotest.failf "expected one race finding, got %d" (List.length fs)

let test_race_transitive_global_write () =
  (* The write sits two call-graph hops below the task: task -> work ->
     bump -> counter. The summary fixpoint carries it up; the finding
     shows the chain. The transitive *read* of the same counter (bump
     dereferences it) is the escape warning on the same seed. *)
  let src =
    parallel_module_with_map
    ^ "let counter = ref 0\n"
    ^ "let bump () = counter := !counter + 1\n"
    ^ "let work () = bump ()\n"
    ^ "let go pool = Parallel.run pool [| (fun () -> work ()) |]"
  in
  match analyze src with
  | [ race; escape ] ->
    hits "transitive write and read of a module-level ref"
      [ ("domain-shared-mutation", 10); ("mutable-toplevel-escape", 10) ]
      [ race; escape ];
    check_contains "chain crosses both hops" race "Fixture.work -> Fixture.bump";
    check_contains "the global is named" race "Fixture.counter";
    check_contains "kind is named" race "ref cell"
  | fs -> Alcotest.failf "expected two race findings, got %d" (List.length fs)

let test_race_task_local_state_silent () =
  let src =
    parallel_module_with_map
    ^ "let go pool =\n"
    ^ "  Parallel.run pool [| (fun () -> let h = ref 0 in h := 1; !h) |]"
  in
  hits "state allocated inside the task is private" [] (analyze src)

let test_race_atomic_counter_silent () =
  (* The Atomic-protected version of the shared counter: same shape as the
     positive case, sanctioned primitives, no finding. *)
  let src =
    parallel_module_with_map
    ^ "let total = Atomic.make 0\n"
    ^ "let go pool =\n"
    ^ "  Parallel.run pool [| (fun () -> Atomic.incr total) |]"
  in
  hits "Atomic.incr on a shared cell is the sanctioned pattern" [] (analyze src)

let test_race_captured_passed_to_writer () =
  (* The task never writes directly; it hands a captured table to a helper
     whose summary says it writes through its parameters. *)
  let src =
    parallel_module_with_map
    ^ "let record tbl k = Hashtbl.replace tbl k ()\n"
    ^ "let go pool ks =\n"
    ^ "  let seen = Hashtbl.create 8 in\n"
    ^ "  Parallel.run pool (Array.map (fun k -> fun () -> record seen k) ks)"
  in
  match analyze src with
  | [ f ] ->
    hits "captured table handed to a writer" [ ("domain-shared-mutation", 10) ] [ f ];
    check_contains "capture is named" f "`seen`";
    check_contains "writer is named" f "Fixture.record";
    check_contains "kind is named" f "hash table"
  | fs -> Alcotest.failf "expected one race finding, got %d" (List.length fs)

let test_race_construction_time_write_silent () =
  (* Writes before the runner call happen serially on the submitting
     domain; the tasks themselves are pure. *)
  let src =
    parallel_module_with_map
    ^ "let go pool =\n"
    ^ "  let log = ref 0 in\n"
    ^ "  log := 1;\n"
    ^ "  Parallel.run pool [| (fun () -> 2) |]"
  in
  hits "serial writes outside the tasks are fine" [] (analyze src)

let test_race_map_function_seed () =
  (* Parallel.map's task is a bare toplevel function reference — no lambda
     to descend into, the seed comes from the argument itself. *)
  let src =
    parallel_module_with_map
    ^ "let counter = ref 0\n"
    ^ "let tally x = counter := !counter + x; x\n"
    ^ "let go pool xs = Parallel.map pool tally xs"
  in
  match analyze src with
  | [ race; escape ] ->
    hits "bare map function writing a module-level ref"
      [ ("domain-shared-mutation", 9); ("mutable-toplevel-escape", 9) ]
      [ race; escape ];
    check_contains "chain names the function" race "Fixture.tally"
  | fs -> Alcotest.failf "expected two race findings, got %d" (List.length fs)

let test_rmw_param_cell_fires () =
  let src = "let bump c = Atomic.set c (Atomic.get c + 1)" in
  match analyze src with
  | [ f ] ->
    hits "get-then-set on one cell" [ ("atomic-read-modify-write", 1) ] [ f ];
    check_contains "cell is named" f "`c`"
  | fs -> Alcotest.failf "expected one rmw finding, got %d" (List.length fs)

let test_rmw_global_cell_fires () =
  let src =
    "let total = Atomic.make 0\n"
    ^ "let reset_if_big () = if Atomic.get total > 10 then Atomic.set total 0"
  in
  match analyze src with
  | [ f ] ->
    hits "check-then-act on a global cell" [ ("atomic-read-modify-write", 2) ] [ f ];
    check_contains "global is named" f "Fixture.total"
  | fs -> Alcotest.failf "expected one rmw finding, got %d" (List.length fs)

let test_rmw_fetch_and_add_silent () =
  let src =
    "let bump c = ignore (Atomic.fetch_and_add c 1)\n"
    ^ "let peek c = Atomic.get c"
  in
  hits "read-modify-write primitives are atomic" [] (analyze src)

let test_rmw_distinct_cells_silent () =
  let src = "let move a b = Atomic.set b (Atomic.get a)" in
  hits "get and set on different cells is not check-then-act" [] (analyze src)

let test_rmw_fresh_cell_silent () =
  let src =
    "let fresh_cell () = let c = Atomic.make 0 in Atomic.set c 1; Atomic.get c"
  in
  hits "set-after-make is initialisation" [] (analyze src)

let test_escape_transitive_read_fires () =
  let src =
    parallel_module_with_map
    ^ "let cache : (int, int) Hashtbl.t = Hashtbl.create 8\n"
    ^ "let lookup n = Hashtbl.find_opt cache n\n"
    ^ "let go pool = Parallel.run pool [| (fun () -> lookup 3) |]"
  in
  match analyze src with
  | [ f ] ->
    hits "task reads a toplevel table through a helper"
      [ ("mutable-toplevel-escape", 9) ]
      [ f ];
    check_contains "chain names the helper" f "Fixture.lookup";
    check_contains "the table is named" f "Fixture.cache"
  | fs -> Alcotest.failf "expected one escape finding, got %d" (List.length fs)

let test_escape_direct_read_fires () =
  let src =
    parallel_module_with_map
    ^ "let scale = ref 2\n"
    ^ "let go pool = Parallel.run pool [| (fun () -> !scale) |]"
  in
  hits "task dereferencing a module-level ref"
    [ ("mutable-toplevel-escape", 8) ]
    (analyze src)

let test_escape_immutable_toplevel_silent () =
  let src =
    parallel_module_with_map
    ^ "let limit = 42\n"
    ^ "let go pool = Parallel.run pool [| (fun () -> limit + 1) |]"
  in
  hits "immutable toplevels are free to share" [] (analyze src)

(* --- effect footprints ---------------------------------------------------- *)

let test_effects_footprint () =
  let module Callgraph = Lopc_analysis.Callgraph in
  let module Effects = Lopc_analysis.Effects in
  let src =
    "let counter = ref 0\n"
    ^ "let bump () = counter := !counter + 1\n"
    ^ "let work () = bump ()"
  in
  let effects = Effects.analyze (Callgraph.build [ unit_of src ]) in
  let print key =
    let buf = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer buf in
    let found = Effects.print_footprint ppf effects key in
    Format.pp_print_flush ppf ();
    (found, Buffer.contents buf)
  in
  let found, text = print "Fixture.work" in
  Alcotest.(check bool) "known key found" true found;
  Alcotest.(check string) "footprint is stable, writes carried two hops up"
    ("effect footprint of Fixture.work\n"
   ^ "  global writes:  Fixture.counter\n"
   ^ "  global reads:   Fixture.counter\n"
   ^ "  atomic cells:   (none)\n"
   ^ "  foreign writes: no\n"
   ^ "  foreign reads:  no\n")
    text;
  let found, text = print "Fixture.nope" in
  Alcotest.(check bool) "unknown key reported" false found;
  Alcotest.(check string) "unknown key prints nothing" "" text

let test_shadowed_toplevel () =
  (* Two toplevel bindings share the key [Fixture.touch]. Effects take the
     direct writes of the first binding but the callees of both; absint
     evaluates the first binding only. *)
  let module Callgraph = Lopc_analysis.Callgraph in
  let module Effects = Lopc_analysis.Effects in
  let module Absint = Lopc_analysis.Absint in
  let src =
    "let first_cell = ref 0\n"
    ^ "let second_cell = ref 0\n"
    ^ "let first_callee_cell = ref 0\n"
    ^ "let second_callee_cell = ref 0\n"
    ^ "let first_callee () = first_callee_cell := 1\n"
    ^ "let second_callee () = second_callee_cell := 1\n"
    ^ "let touch () = first_cell := 1; first_callee (); 1.0\n"
    ^ "let touch () = second_cell := 1; second_callee (); 2.0"
  in
  let graph = Callgraph.build [ unit_of src ] in
  let print pp =
    let buf = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer buf in
    Alcotest.(check bool) "key found" true (pp ppf "Fixture.touch");
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let effects = Effects.analyze graph in
  Alcotest.(check string) "first binding's writes plus both bindings' callees"
    ("effect footprint of Fixture.touch\n"
   ^ "  global writes:  Fixture.first_callee_cell Fixture.first_cell \
      Fixture.second_callee_cell\n"
   ^ "  global reads:   (none)\n"
   ^ "  atomic cells:   (none)\n"
   ^ "  foreign writes: no\n"
   ^ "  foreign reads:  no\n")
    (print (fun ppf key -> Effects.print_footprint ppf effects key));
  let absint = Absint.analyze graph in
  Alcotest.(check string) "first binding's return only"
    "interval summary of Fixture.touch\n  param _: top\n  return: [1, 1]\n"
    (print (fun ppf key -> Absint.print_summary ppf absint key))

(* --- functors and first-class modules ------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* `dune runtest` runs the binary in test/, `dune exec` from the root. *)
let fixture_path name =
  if Sys.file_exists (Filename.concat "fixtures" name) then
    Filename.concat "fixtures" name
  else Filename.concat (Filename.concat "test" "fixtures") name

let analyze_fixture_file name =
  let path = fixture_path name in
  Typed_driver.analyze_units [ unit_of ~source:path (read_file path) ]

let test_callgraph_functor_body () =
  (* Definitions inside a functor body are ordinary nodes: the taint entry
     [F.solve_status] reaches [F.clock] through a same-unit reference, and
     the unexpanded application [App] (referenced by [use]) breaks
     nothing. *)
  match analyze_fixture_file "callgraph_functor.ml" with
  | [ f ] ->
    hits "wall clock inside a functor body" [ ("determinism-taint", 11) ] [ f ];
    check_contains "chain stays inside the functor" f
      "Fixture.F.solve_status -> Fixture.F.clock";
    check_contains "source is named" f "Sys.time"
  | fs -> Alcotest.failf "expected one functor finding, got %d" (List.length fs)

let test_callgraph_first_class_module () =
  (* References inside a packed structure roll up into the binding that
     packs it, so taint flows through the first-class module value. *)
  match analyze_fixture_file "callgraph_fcm.ml" with
  | [ f ] ->
    hits "wall clock behind a packed module" [ ("determinism-taint", 12) ] [ f ];
    check_contains "chain goes through the packed binding" f
      "Fixture.solve_status -> Fixture.wall"
  | fs -> Alcotest.failf "expected one fcm finding, got %d" (List.length fs)

let test_local_pack_unpack_silent () =
  let src =
    "module type SRC = sig val now : unit -> float end\n"
    ^ "let solve_status x =\n"
    ^ "  let (module S) = (module struct let now () = 1.0 end : SRC) in\n"
    ^ "  x +. S.now ()"
  in
  hits "a pure local pack/unpack is clean" [] (analyze src)

(* --- missing .cmt inputs -------------------------------------------------- *)

let test_no_cmt_inputs_raises () =
  (* The fixtures directory holds sources but no .cmt files; the typed
     stage must refuse loudly rather than analyse nothing. *)
  Alcotest.check_raises "no .cmt under the roots"
    (Typed_driver.No_cmt_inputs [ "fixtures" ])
    (fun () -> ignore (Typed_driver.analyze_paths [ "fixtures" ]))

(* --- determinism-taint over lib/obs ----------------------------------------- *)

(* Every lib/obs definition is a taint entry: trace timestamps must be
   simulated cycles, so a wall clock reachable from the recorder, probes or
   emitters is a determinism finding. *)

let test_obs_wall_clock_fires () =
  let src =
    "let stamp () = Unix.gettimeofday ()\n"
    ^ "let emit buf name = Buffer.add_string buf (name ^ string_of_float (stamp ()))"
  in
  match analyze ~source:"lib/obs/fixture.ml" src with
  | [ f ] ->
    hits "wall clock reachable from an obs emitter" [ ("determinism-taint", 1) ] [ f ];
    check_contains "chain names the emitter" f "Fixture.stamp";
    check_contains "clock is named" f "Unix.gettimeofday"
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_obs_sys_time_fires () =
  let src = "let emit () = Sys.time ()" in
  hits "Sys.time directly in lib/obs"
    [ ("determinism-taint", 1) ]
    (analyze ~source:"lib/obs/fixture.ml" src)

let test_obs_simulated_clock_silent () =
  (* Timestamps threaded in as data are exactly the sanctioned pattern. *)
  let src =
    "let emit buf ~ts name = Buffer.add_string buf (string_of_float ts ^ name)\n"
    ^ "let span buf ~ts name = emit buf ~ts name; emit buf ~ts (name ^ \"/end\")"
  in
  hits "simulated timestamps passed as arguments are clean" []
    (analyze ~source:"lib/obs/fixture.ml" src)

let test_obs_outside_dir_silent () =
  (* The same clock call outside lib/obs, reachable from no entry, is
     silent. *)
  let src = "let stamp () = Unix.gettimeofday ()" in
  hits "wall clock outside lib/obs is out of scope" []
    (analyze ~source:"lib/fixture/fixture.ml" src)

(* --- unbounded-retry ----------------------------------------------------- *)

let test_retry_unbounded_while_fires () =
  let src =
    "let settle n =\n"
    ^ "  let r = ref n in\n"
    ^ "  while !r > 0 do r := !r - 1 done;\n"
    ^ "  !r\n"
    ^ "let solve_status n = settle n"
  in
  match analyze src with
  | [ f ] ->
    hits "bare while reachable from solve_status" [ ("unbounded-retry", 3) ] [ f ];
    check_contains "chain names the entry" f "Fixture.solve_status -> Fixture.settle"
  | fs -> Alcotest.failf "expected one retry finding, got %d" (List.length fs)

let test_retry_eventsim_dir_is_entry () =
  (* Anything under lib/eventsim is an entry by directory, no name needed. *)
  let src =
    "let drain n =\n"
    ^ "  let r = ref n in\n"
    ^ "  while !r > 0 do r := !r - 1 done;\n"
    ^ "  !r"
  in
  hits "simulator loop flagged by directory"
    [ ("unbounded-retry", 3) ]
    (analyze ~source:"lib/eventsim/fixture.ml" src)

let test_retry_bound_ident_silent () =
  (* The granularity is the definition: any budget-ish identifier in the
     body ([max_iter] here) excuses its loops. *)
  let src =
    "let settle ~max_iter n =\n"
    ^ "  let r = ref n and i = ref 0 in\n"
    ^ "  while !r > 0 && !i < max_iter do incr i; r := !r - 1 done;\n"
    ^ "  !r\n"
    ^ "let solve_status n = settle ~max_iter:8 n"
  in
  hits "a max_* bound in the definition is enough" [] (analyze src)

let test_retry_budget_helper_silent () =
  (* A local helper whose name mentions the budget counts, matching the
     check_budget idiom the solvers use. *)
  let src =
    "let settle ~check_budget n =\n"
    ^ "  let r = ref n in\n"
    ^ "  while !r > 0 do check_budget (); r := !r - 1 done;\n"
    ^ "  !r\n"
    ^ "let solve_status n = settle ~check_budget:(fun () -> ()) n"
  in
  hits "polling a check_budget helper is clean" [] (analyze src)

let test_retry_for_loop_silent () =
  let src =
    "let settle n =\n"
    ^ "  let acc = ref 0 in\n"
    ^ "  for i = 1 to n do acc := !acc + i done;\n"
    ^ "  !acc\n"
    ^ "let solve_status n = settle n"
  in
  hits "for loops are inherently bounded" [] (analyze src)

let test_retry_unreachable_silent () =
  let src =
    "let spin n =\n"
    ^ "  let r = ref n in\n"
    ^ "  while !r > 0 do r := !r - 1 done;\n"
    ^ "  !r\n"
    ^ "let _ = spin"
  in
  hits "a loop no entry reaches is out of scope" [] (analyze src)

(* --- suppression of typed findings -------------------------------------- *)

(* Typed findings are filtered by the [@lint.allow] regions of the source
   file they point into, so the fixture must exist on disk. *)
let with_fixture_file src f =
  let path = Filename.temp_file "lopc_lint_typed" ".ml" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_typed_suppression () =
  let violating which =
    "let clock () = (Sys.time () " ^ which ^ ")\n"
    ^ "let solve_status x = x +. clock ()"
  in
  with_fixture_file (violating {|[@lint.allow "determinism-taint" "fixture"]|})
    (fun path ->
      hits "justified suppression silences the typed finding" []
        (analyze ~source:path (violating {|[@lint.allow "determinism-taint" "fixture"]|})));
  with_fixture_file (violating {|[@lint.allow "exn-escape" "wrong rule"]|})
    (fun path ->
      hits "a suppression naming another rule does not mask"
        [ ("determinism-taint", 1) ]
        (analyze ~source:path (violating {|[@lint.allow "exn-escape" "wrong rule"]|})))

(* --- test-only-export ---------------------------------------------------- *)

(* A lib/ unit [Stat] with a public [trimmed] over a private-to-lib helper
   [clip], plus the units given, loaded together. *)
let lib_stat =
  ( "Stat",
    "lib/stats/stat.ml",
    "let clip x = Float.max 0. x\nlet trimmed xs = List.map clip xs\nlet used x = x" )

let export_findings ?(lib = lib_stat) others =
  Typed_fixture.typecheck_units (lib :: others)
  |> Typed_driver.analyze_units
  |> List.filter (fun (f : Finding.t) -> f.rule = "test-only-export")

let bin_user = ("Main", "bin/main.ml", "let () = ignore (Stat.used 1)")

let test_export_test_only_fires () =
  let test_user = ("Test_stat", "test/test_stat.ml", "let check () = Stat.trimmed [ 1. ]") in
  match export_findings [ bin_user; test_user ] with
  | [ f ] ->
    Alcotest.(check int) "at the binding" 2 (Finding.line f);
    check_contains "names the value" f "Stat.trimmed";
    check_contains "names the test" f "only test/ uses it (e.g. Test_stat.check)"
  | fs -> Alcotest.failf "expected one test-only-export finding, got %d" (List.length fs)

let test_export_bin_user_silent () =
  let bin = ("Main", "bin/main.ml", "let () = ignore (Stat.trimmed [ 1. ], Stat.used 1)") in
  let test_user = ("Test_stat", "test/test_stat.ml", "let check () = Stat.trimmed [ 1. ]") in
  hits "a bin/ user keeps it" [] (export_findings [ bin; test_user ])

let test_export_no_production_silent () =
  let test_user = ("Test_stat", "test/test_stat.ml", "let check () = Stat.trimmed [ 1. ]") in
  hits "no bin/ or examples/ unit: nothing to reach from" [] (export_findings [ test_user ])

let test_export_unused_fires () =
  match export_findings [ bin_user ] with
  | [ f ] ->
    check_contains "names the value" f "Stat.trimmed";
    check_contains "says nothing uses it" f "nothing uses it"
  | fs -> Alcotest.failf "expected one test-only-export finding, got %d" (List.length fs)

let test_export_helper_not_reported () =
  (* [clip] is unreachable too, but only [trimmed], the root of the dead
     subgraph, is reported. *)
  hits "only the root" [ ("test-only-export", 2) ] (export_findings [ bin_user ])

let test_export_suppressed () =
  let src =
    "let clip x = Float.max 0. x\n"
    ^ "let trimmed xs = List.map clip xs\n"
    ^ "[@@lint.allow \"test-only-export\" \"perfbench/x.ml uses it\"]\n"
    ^ "let used x = x"
  in
  (* Suppressions are read back from the source file, which has to lie
     under lib/ for the rule to apply: write it below a scratch cwd. *)
  let dir = Filename.temp_dir "lopc_export" "" in
  let cwd = Sys.getcwd () in
  Sys.mkdir (Filename.concat dir "lib") 0o755;
  let path = Filename.concat "lib" "stat.ml" in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.remove (Filename.concat dir path);
      Sys.rmdir (Filename.concat dir "lib");
      Sys.rmdir dir)
    (fun () ->
      Sys.chdir dir;
      hits "without the file's allow it fires" [ ("test-only-export", 2) ]
        (export_findings ~lib:("Stat", path, src) [ bin_user ]);
      Out_channel.with_open_bin path (fun oc -> output_string oc src);
      hits "a justified allow silences it" []
        (export_findings ~lib:("Stat", path, src) [ bin_user ]))

(* --- report stability ---------------------------------------------------- *)

let test_json_stable_across_runs () =
  (* Same fixture, two independent typecheck+analyze passes: the rendered
     JSON must be byte-identical (no ident stamps, hash order or other
     per-run state may leak into the report). *)
  let src =
    "let clock () = Sys.time ()\n"
    ^ "let order (a : float array) = Array.sort compare a\n"
    ^ "let solve_status a = order a; clock ()\n"
    ^ "let solve x = x + 1"
  in
  let render () =
    let findings = analyze src in
    Format.asprintf "%a" (fun ppf -> Driver.report ppf ~format:Driver.Json) findings
  in
  let first = render () in
  let second = render () in
  Alcotest.(check string) "two runs render identically" first second;
  Alcotest.(check bool) "report is non-trivial" true (String.length first > 10)

let test_json_stable_with_race_findings () =
  (* Same guarantee for the effect-summary rules, whose findings carry
     witness chains built from ident-bearing structures. *)
  let src =
    parallel_module_with_map
    ^ "let counter = ref 0\n"
    ^ "let bump () = counter := !counter + 1\n"
    ^ "let go pool = Parallel.run pool [| (fun () -> bump ()) |]\n"
    ^ "let swap c = Atomic.set c (Atomic.get c + 1)"
  in
  let render () =
    let findings = analyze src in
    Format.asprintf "%a" (fun ppf -> Driver.report ppf ~format:Driver.Json) findings
  in
  let first = render () in
  Alcotest.(check string) "two runs render identically" first (render ());
  Alcotest.(check bool) "race findings present" true
    (String.length first > 10)

let test_typed_catalogue () =
  Alcotest.(check (list string))
    "the thirteen typed rules, in catalogue order"
    [
      "determinism-taint"; "exn-escape"; "rng-stream-discipline";
      "parallel-rng-capture"; "unbounded-retry";
      "domain-shared-mutation"; "atomic-read-modify-write";
      "mutable-toplevel-escape"; "probability-range"; "division-by-vanishing";
      "negative-cost"; "unit-mismatch"; "test-only-export";
    ]
    (List.filter_map
       (fun (e : Explain.entry) -> if e.stage = "typed" then Some e.id else None)
       Explain.entries)

(* Rule metadata lives once: a rule module's severity must equal the one
   its Explain entry (and so --list-rules, RULES.md and SARIF) reports. *)
let test_severities_match_explain () =
  let module A = Lopc_analysis in
  let rules =
    List.map (fun (r : A.Rule.t) -> (r.id, r.severity))
      (Driver.bare_suppression_rule :: Driver.default_rules)
    @ [
        (A.Taint_rules.rule_id, A.Taint_rules.severity);
        (A.Exn_rules.rule_id, A.Exn_rules.severity);
        (A.Stream_rules.rule_id, A.Stream_rules.severity);
        (A.Par_rules.rule_id, A.Par_rules.severity);
        (A.Retry_rules.rule_id, A.Retry_rules.severity);
        (A.Export_rules.rule_id, A.Export_rules.severity);
      ]
    @ List.map (fun (id, _) -> (id, A.Numeric_rules.severity_of id)) A.Numeric_rules.catalogue
  in
  List.iter
    (fun (id, severity) ->
      match Explain.find id with
      | None -> Alcotest.failf "%s has no Explain entry" id
      | Some e ->
        Alcotest.(check string) id
          (Finding.severity_to_string e.severity)
          (Finding.severity_to_string severity))
    rules

let suite =
  [
    Alcotest.test_case "taint: wall clock fires" `Quick test_taint_wall_clock_fires;
    Alcotest.test_case "taint: unreachable silent" `Quick test_taint_unreachable_silent;
    Alcotest.test_case "taint: poly compare on floats" `Quick
      test_taint_poly_compare_on_floats;
    Alcotest.test_case "taint: Float.compare silent" `Quick
      test_taint_monomorphic_compare_silent;
    Alcotest.test_case "taint: poly compare on ints silent" `Quick
      test_taint_poly_compare_on_ints_silent;
    Alcotest.test_case "taint: Hashtbl iteration" `Quick test_taint_hashtbl_iteration;
    Alcotest.test_case "taint: global Random" `Quick test_taint_global_random;
    Alcotest.test_case "taint: float field by expansion" `Quick
      test_taint_record_with_float_field;
    Alcotest.test_case "taint: source through a cycle" `Quick test_taint_through_cycle;
    Alcotest.test_case "exn: escape fires" `Quick test_exn_escape_fires;
    Alcotest.test_case "exn: caught silent" `Quick test_exn_escape_caught_silent;
    Alcotest.test_case "exn: invalid_arg allowed" `Quick
      test_exn_escape_invalid_arg_allowed;
    Alcotest.test_case "exn: stdlib raiser" `Quick test_exn_escape_stdlib_raiser;
    Alcotest.test_case "exn: wildcard handler" `Quick
      test_exn_escape_wildcard_handler_silent;
    Alcotest.test_case "exn: mutual recursion" `Quick test_exn_escape_mutual_recursion;
    Alcotest.test_case "stream: double use fires" `Quick test_stream_double_use_fires;
    Alcotest.test_case "stream: split per consumer" `Quick
      test_stream_one_split_per_consumer_silent;
    Alcotest.test_case "stream: branch arms" `Quick
      test_stream_branch_arms_are_alternatives;
    Alcotest.test_case "stream: loop use fires" `Quick test_stream_loop_use_fires;
    Alcotest.test_case "par: captured draw fires" `Quick test_par_capture_fires;
    Alcotest.test_case "par: captured split fires" `Quick
      test_par_capture_split_inside_fires;
    Alcotest.test_case "par: pre-split array silent" `Quick
      test_par_capture_presplit_array_silent;
    Alcotest.test_case "par: construction-time silent" `Quick
      test_par_capture_construction_time_silent;
    Alcotest.test_case "par: off-pool closure silent" `Quick
      test_par_capture_outside_runner_silent;
    Alcotest.test_case "obs: wall clock fires" `Quick test_obs_wall_clock_fires;
    Alcotest.test_case "obs: Sys.time fires" `Quick test_obs_sys_time_fires;
    Alcotest.test_case "obs: simulated clock silent" `Quick
      test_obs_simulated_clock_silent;
    Alcotest.test_case "obs: outside lib/obs silent" `Quick test_obs_outside_dir_silent;
    Alcotest.test_case "retry: bare while fires" `Quick test_retry_unbounded_while_fires;
    Alcotest.test_case "retry: eventsim dir is entry" `Quick
      test_retry_eventsim_dir_is_entry;
    Alcotest.test_case "retry: bound ident silent" `Quick test_retry_bound_ident_silent;
    Alcotest.test_case "retry: budget helper silent" `Quick
      test_retry_budget_helper_silent;
    Alcotest.test_case "retry: for loop silent" `Quick test_retry_for_loop_silent;
    Alcotest.test_case "retry: unreachable silent" `Quick test_retry_unreachable_silent;
    Alcotest.test_case "race: captured write fires" `Quick
      test_race_captured_write_fires;
    Alcotest.test_case "race: transitive write fires" `Quick
      test_race_transitive_global_write;
    Alcotest.test_case "race: task-local state silent" `Quick
      test_race_task_local_state_silent;
    Alcotest.test_case "race: atomic counter silent" `Quick
      test_race_atomic_counter_silent;
    Alcotest.test_case "race: capture to writer fires" `Quick
      test_race_captured_passed_to_writer;
    Alcotest.test_case "race: construction-time silent" `Quick
      test_race_construction_time_write_silent;
    Alcotest.test_case "race: map function seed" `Quick test_race_map_function_seed;
    Alcotest.test_case "rmw: param cell fires" `Quick test_rmw_param_cell_fires;
    Alcotest.test_case "rmw: global cell fires" `Quick test_rmw_global_cell_fires;
    Alcotest.test_case "rmw: fetch_and_add silent" `Quick test_rmw_fetch_and_add_silent;
    Alcotest.test_case "rmw: distinct cells silent" `Quick
      test_rmw_distinct_cells_silent;
    Alcotest.test_case "rmw: fresh cell silent" `Quick test_rmw_fresh_cell_silent;
    Alcotest.test_case "escape: transitive read fires" `Quick
      test_escape_transitive_read_fires;
    Alcotest.test_case "escape: direct read fires" `Quick test_escape_direct_read_fires;
    Alcotest.test_case "escape: immutable silent" `Quick
      test_escape_immutable_toplevel_silent;
    Alcotest.test_case "effects: footprint dump" `Quick test_effects_footprint;
    Alcotest.test_case "callgraph: shadowed toplevel" `Quick test_shadowed_toplevel;
    Alcotest.test_case "callgraph: functor body" `Quick test_callgraph_functor_body;
    Alcotest.test_case "callgraph: first-class module" `Quick
      test_callgraph_first_class_module;
    Alcotest.test_case "callgraph: local pack silent" `Quick
      test_local_pack_unpack_silent;
    Alcotest.test_case "typed: no .cmt inputs raises" `Quick test_no_cmt_inputs_raises;
    Alcotest.test_case "typed suppression" `Quick test_typed_suppression;
    Alcotest.test_case "json stable across runs" `Quick test_json_stable_across_runs;
    Alcotest.test_case "json stable with race findings" `Quick
      test_json_stable_with_race_findings;
    Alcotest.test_case "typed catalogue" `Quick test_typed_catalogue;
    Alcotest.test_case "rule severities match Explain" `Quick
      test_severities_match_explain;
    Alcotest.test_case "export: test-only use fires" `Quick test_export_test_only_fires;
    Alcotest.test_case "export: bin/ user silent" `Quick test_export_bin_user_silent;
    Alcotest.test_case "export: no production unit silent" `Quick
      test_export_no_production_silent;
    Alcotest.test_case "export: unused fires" `Quick test_export_unused_fires;
    Alcotest.test_case "export: helper not reported" `Quick test_export_helper_not_reported;
    Alcotest.test_case "export: justified allow suppresses" `Quick test_export_suppressed;
  ]
