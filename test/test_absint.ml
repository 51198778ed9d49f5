(* Tests for the numeric stage (stage 3): qcheck laws for the interval
   lattice (order, join/meet, widening termination, transfer soundness
   against concrete float evaluation, guard-refinement soundness), each
   numeric rule firing on its violating fixture and staying silent on the
   clean one, and the stable [--show-intervals] summary format. Fixtures
   live in [test/fixtures/absint_*.ml] and are typechecked in-process,
   like the stage-2 tests. *)

module Interval = Lopc_analysis.Interval
module Absint = Lopc_analysis.Absint
module Callgraph = Lopc_analysis.Callgraph
module Typed_driver = Lopc_analysis.Typed_driver
module Finding = Lopc_analysis.Finding

(* --- fixtures ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* dune runtest runs the binary in _build/default/test (where the dep glob
   places fixtures/); dune exec runs it from the project root. *)
let fixture_path name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" name

(* [x] lies in the interval: the soundness oracle of the transfer laws. *)
let mem x (t : Interval.t) =
  if Float.is_nan x then t.nan
  else match t.range with Some (lo, hi) -> lo <= x && x <= hi | None -> false

let unit_of_fixture name =
  let source = Filename.concat "test/fixtures" name in
  match
    Typed_fixture.typecheck_string ~modname:"Fixture" ~source
      (read_file (fixture_path name))
  with
  | Ok u -> u
  | Error msg -> Alcotest.failf "fixture %s does not typecheck: %s" name msg

let rules_on name =
  Typed_driver.analyze_units ~stage:`Numeric [ unit_of_fixture name ]
  |> List.map (fun (f : Finding.t) -> f.rule)

let fires fixture rule () =
  Alcotest.(check (list string)) fixture [ rule ] (rules_on fixture)

let silent fixture () = Alcotest.(check (list string)) fixture [] (rules_on fixture)

(* --- qcheck: the interval lattice --------------------------------------- *)

(* Bounds drawn from the values where the transfer corner cases live:
   zeros of both signs, the widening thresholds, infinities, and ordinary
   magnitudes; random floats are sanitised of NaN (intervals carry NaN as
   a flag, not a bound). *)
let bound_gen =
  let open QCheck.Gen in
  oneof
    [
      oneofl
        [ neg_infinity; -1e300; -2.5; -1.; -0.5; -0.; 0.; 1e-9; 0.5; 1.; 2.5;
          1e300; infinity ];
      map (fun x -> if Float.is_nan x then 0. else x) float;
    ]

let itv_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, return Interval.bot);
      (1, return Interval.nan_only);
      (1, return Interval.top);
      ( 8,
        map3
          (fun a b nan ->
            let base = Interval.v (Float.min a b) (Float.max a b) in
            if nan then Interval.join base Interval.nan_only else base)
          bound_gen bound_gen bool );
    ]

let arb_itv = QCheck.make ~print:Interval.to_string itv_gen

(* Concrete floats, NaN included: the domain must absorb it. *)
let concrete_gen =
  QCheck.Gen.(oneof [ bound_gen; return Float.nan ])

let arb_concrete =
  QCheck.make ~print:(Printf.sprintf "%h") concrete_gen

let law name count arb f = QCheck.Test.make ~name ~count arb f

let lattice_laws =
  [
    law "join idempotent" 200 arb_itv (fun a -> Interval.(equal (join a a) a));
    law "meet idempotent" 200 arb_itv (fun a -> Interval.(equal (meet a a) a));
    law "join commutative" 200 (QCheck.pair arb_itv arb_itv) (fun (a, b) ->
        Interval.(equal (join a b) (join b a)));
    law "meet commutative" 200 (QCheck.pair arb_itv arb_itv) (fun (a, b) ->
        Interval.(equal (meet a b) (meet b a)));
    law "join associative" 200 (QCheck.triple arb_itv arb_itv arb_itv)
      (fun (a, b, c) -> Interval.(equal (join (join a b) c) (join a (join b c))));
    law "a <= a join b, a meet b <= a" 200 (QCheck.pair arb_itv arb_itv)
      (fun (a, b) -> Interval.(leq a (join a b) && leq (meet a b) a));
    law "leq antisymmetric" 200 (QCheck.pair arb_itv arb_itv) (fun (a, b) ->
        (not (Interval.leq a b && Interval.leq b a)) || Interval.equal a b);
    law "bot and top bracket everything" 200 arb_itv (fun a ->
        Interval.(leq bot a && leq a top));
    law "widen covers its arguments" 200 (QCheck.pair arb_itv arb_itv)
      (fun (a, b) -> Interval.(leq a (widen a b) && leq b (widen a b)));
    (* Termination: from any start, repeatedly widening with any sequence
       of perturbations stabilises in a handful of steps, because each
       unstable bound jumps to the next member of a finite threshold
       set. Six steps is generous: the set has five members per side. *)
    law "widening terminates" 200
      (QCheck.pair arb_itv (QCheck.list_of_size (QCheck.Gen.return 10) arb_itv))
      (fun (start, chain) ->
        let steps = ref 0 in
        let w = ref start in
        List.iter
          (fun x ->
            let next = Interval.widen !w (Interval.join !w x) in
            if not (Interval.equal next !w) then incr steps;
            w := next)
          chain;
        (* After enough inputs the iterate must have stopped moving. *)
        !steps <= 6);
  ]

(* --- qcheck: transfer soundness vs concrete float evaluation ------------ *)

(* x is a member of [join (const x) a] by construction, so evaluating the
   concrete operator on members and checking membership of the abstract
   result exercises the corner evaluation including NaN corners. *)
let around x a = Interval.join (Interval.const x) a

let binary_ops =
  [
    ("add", Interval.add, ( +. ));
    ("sub", Interval.sub, ( -. ));
    ("mul", Interval.mul, ( *. ));
    ("div", Interval.div, ( /. ));
    ("min", Interval.min_, Float.min);
    ("max", Interval.max_, Float.max);
  ]

let unary_ops =
  [
    ("neg", Interval.neg, ( ~-. ));
    ("abs", Interval.abs, Float.abs);
    ("sqrt", Interval.sqrt_, Float.sqrt);
    ("exp", Interval.exp_, Float.exp);
  ]

let transfer_laws =
  List.map
    (fun (name, abstract, concrete) ->
      law ("sound transfer: " ^ name) 500
        (QCheck.quad arb_concrete arb_concrete arb_itv arb_itv)
        (fun (x, y, a, b) ->
          mem (concrete x y) (abstract (around x a) (around y b))))
    binary_ops
  @ List.map
      (fun (name, abstract, concrete) ->
        law ("sound transfer: " ^ name) 500
          (QCheck.pair arb_concrete arb_itv)
          (fun (x, a) -> mem (concrete x) (abstract (around x a))))
      unary_ops

let holds cmp x bound =
  match cmp with
  | `Lt -> x < bound
  | `Le -> x <= bound
  | `Gt -> x > bound
  | `Ge -> x >= bound
  | `Eq -> x = bound

let refine_laws =
  [
    (* If the guard holds for a member, the member survives refinement. *)
    law "sound refinement" 500
      (QCheck.quad arb_concrete arb_concrete arb_itv
         (QCheck.oneofl [ `Lt; `Le; `Gt; `Ge; `Eq ]))
      (fun (x, bound, a, cmp) ->
        (not (holds cmp x bound))
        || mem x
             (Interval.refine (around x a) ~cmp ~bound ~int_typed:false
                ~keep_nan:false));
    law "refinement shrinks" 200
      (QCheck.triple arb_itv arb_concrete
         (QCheck.oneofl [ `Lt; `Le; `Gt; `Ge; `Eq ]))
      (fun (a, bound, cmp) ->
        Float.is_nan bound
        || Interval.leq
             (Interval.refine a ~cmp ~bound ~int_typed:false ~keep_nan:false)
             a);
  ]

(* --- the numeric rules on fixtures -------------------------------------- *)

(* Each bad fixture is decidable only with interval reasoning: the guard
   a syntactic or reachability pass would accept is present, but on one
   side only. *)
let fixture_tests =
  [
    Alcotest.test_case "probability-range fires" `Quick
      (fires "absint_prob_bad.ml" "probability-range");
    Alcotest.test_case "probability-range silent" `Quick
      (silent "absint_prob_good.ml");
    Alcotest.test_case "negative-cost fires" `Quick
      (fires "absint_cost_bad.ml" "negative-cost");
    Alcotest.test_case "negative-cost silent" `Quick (silent "absint_cost_good.ml");
    Alcotest.test_case "division-by-vanishing fires" `Quick
      (fires "absint_div_bad.ml" "division-by-vanishing");
    Alcotest.test_case "division-by-vanishing silent" `Quick
      (silent "absint_div_good.ml");
    Alcotest.test_case "unit-mismatch fires" `Quick
      (fires "absint_unit_bad.ml" "unit-mismatch");
    Alcotest.test_case "unit-mismatch silent" `Quick (silent "absint_unit_good.ml");
  ]

(* --- the --show-intervals summary format --------------------------------- *)

let test_summary_format () =
  let absint = Absint.analyze (Callgraph.build [ unit_of_fixture "absint_summary.ml" ]) in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  let found = Absint.print_summary ppf absint "Fixture.consume" in
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "key resolves" true found;
  Alcotest.(check string) "stable summary format"
    "interval summary of Fixture.consume\n  param ~q: [0, 1]\n  return: [0, 1]\n"
    (Buffer.contents buf);
  Alcotest.(check bool) "unknown key reports false" false
    (Absint.print_summary ppf absint "Fixture.nope")

(* The counterexample "sound transfer: div" once drew: every corner of
   [-inf, inf] / [-inf, -inf] is NaN, yet -6692.3 /. neg_infinity = 0. *)
let test_div_finite_by_infinity () =
  let x = -0x1.a245622bdae53p+12 in
  let q =
    Interval.div (around x Interval.top) (around neg_infinity Interval.nan_only)
  in
  Alcotest.(check bool) "x / -inf is a member" true (mem (x /. neg_infinity) q)

let suite =
  List.map QCheck_alcotest.to_alcotest (lattice_laws @ transfer_laws @ refine_laws)
  @ fixture_tests
  @ [
      Alcotest.test_case "--show-intervals format" `Quick test_summary_format;
      Alcotest.test_case "div: finite over infinity" `Quick test_div_finite_by_infinity;
    ]
