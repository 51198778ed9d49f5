(* The rule reference: one entry per rule id, carrying the rationale and a
   minimal violating example. `lopc-lint --explain <id>` prints these, and
   the README's rule table is written from the same text, so the tool and
   the docs cannot drift apart silently. *)

type entry = {
  id : string;
  severity : Finding.severity;
  stage : string;  (* "syntactic" or "typed" *)
  summary : string;
  rationale : string;
  example : string;  (* minimal violating program *)
  fix : string;
}

let entries =
  [
    {
      id = "float-equality";
      severity = Finding.Warning;
      stage = "syntactic";
      summary =
        "structural =/<>/compare applied to float literals or float-returning calls";
      rationale =
        "Queueing quantities (utilizations, residence times, rates) are floats \
         accumulated over many iterations; exact structural equality on them is \
         almost always a rounding-sensitive bug that makes convergence checks \
         platform-dependent.";
      example = "let converged r = r = 0.0";
      fix =
        "Compare with a tolerance (Float.abs (a -. b) < eps), classify \
         (Float.classify_float x = FP_zero), or use Float.equal when exact \
         equality really is intended.";
    };
    {
      id = "unguarded-division";
      severity = Finding.Warning;
      stage = "syntactic";
      summary =
        "/. by a `1. -. u`-shaped denominator with no dominating guard in the same \
         function";
      rationale =
        "The LoPC and MVA response-time formulas divide by (1 - utilization); at \
         saturation the denominator crosses zero and the result silently becomes \
         inf or nan, which then propagates through every downstream metric.";
      example = "let wait u s = s /. (1. -. u)";
      fix =
        "Guard before dividing (if u >= limit then ... else ...), clamp the \
         denominator (Float.max eps (1. -. u)), or suppress when a caller \
         provably enforces the bound.";
    };
    {
      id = "global-rng";
      severity = Finding.Error;
      stage = "syntactic";
      summary = "use of the global Stdlib.Random outside lib/prng";
      rationale =
        "The global Random stream is ambient mutable state: any call reorders \
         every later draw, so simulations stop being replayable the moment two \
         call sites share it. All randomness must flow through an explicit \
         Lopc_prng.Rng.t value.";
      example = "let jitter () = Random.float 1.0";
      fix =
        "Thread an explicit Lopc_prng.Rng.t into the function and draw from it; \
         only lib/prng may touch the raw generator.";
    };
    {
      id = "physical-equality";
      severity = Finding.Warning;
      stage = "syntactic";
      summary = "==/!= on non-unit values";
      rationale =
        "Physical equality on immutable data is representation-dependent — it \
         can differ between runs, compilers and flambda settings — so any \
         behaviour that branches on it is nondeterministic by construction.";
      example = "let same a b = a == b";
      fix = "Use structural (=) or a monomorphic equal function for the type.";
    };
    {
      id = "banned-constructs";
      severity = Finding.Error;
      stage = "syntactic";
      summary = "Obj.magic anywhere; exit or Printf.printf inside lib/";
      rationale =
        "Obj.magic defeats the type system that the rest of this linter leans \
         on; exit and printing from library code hijack the process and stdout \
         that belong to the driver, making solvers unusable as libraries.";
      example = "let cast x = Obj.magic x";
      fix =
        "Delete the Obj.magic (restructure the types); return values or use a \
         result type instead of exit/printf in library code.";
    };
    {
      id = "bare-failwith";
      severity = Finding.Warning;
      stage = "syntactic";
      summary = "failwith or raise (Failure _) inside lib/";
      rationale =
        "Failure carries only a string, so callers cannot match on the error \
         case; library errors must be typed (a dedicated exception or a result) \
         to be handleable.";
      example = "let check n = if n < 0 then failwith \"bad\"";
      fix =
        "Declare a dedicated exception or return a result; use invalid_arg only \
         for documented precondition violations.";
    };
    {
      id = "missing-mli";
      severity = Finding.Warning;
      stage = "syntactic";
      summary = "a library .ml with no sibling .mli";
      rationale =
        "Unconstrained library modules leak internals, so every refactoring is a \
         breaking change and nothing documents the intended surface.";
      example = "(* lib/foo/bar.ml exists, lib/foo/bar.mli does not *)";
      fix = "Write the interface file, exporting only the intended surface.";
    };
    {
      id = "parse-error";
      severity = Finding.Error;
      stage = "syntactic";
      summary = "file does not parse";
      rationale =
        "A file the linter cannot parse is a file none of the rules have \
         checked; treating it as clean would hide every other finding in it.";
      example = "let broken = (";
      fix = "Fix the syntax error; the compiler's message points at it.";
    };
    {
      id = "bare-suppression";
      severity = Finding.Warning;
      stage = "syntactic";
      summary = "[@lint.allow] without a justification string";
      rationale =
        "A suppression without a recorded reason rots into an unauditable \
         exemption: nobody can later tell whether the waived finding is still \
         safe, so the waiver outlives its argument.";
      example = "let x = (a = b) [@lint.allow \"float-equality\"]";
      fix =
        "Say why the finding is safe: [@lint.allow \"rule-id\" \"reason it is \
         safe here\"].";
    };
    {
      id = "determinism-taint";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "a nondeterminism source reachable from the simulator, the observability \
         layer (lib/obs) or a solver entry point";
      rationale =
        "The contention model is validated by comparing solver output against \
         simulation bit-for-bit across runs; any path from a simulator or solver \
         entry point to the global RNG, a wall clock, Hashtbl iteration order, or \
         polymorphic compare at a float-bearing or abstract type makes that \
         comparison flaky in ways unit tests rarely catch. Every lib/obs \
         definition is an entry too: trace timestamps are simulated cycles, which \
         is what keeps trace files byte-identical across runs and --jobs \
         settings, so a wall clock reachable from the recorder, probes or \
         emitters is flagged like one reachable from the simulator. The finding \
         prints the call chain from the entry point to the source.";
      example =
        "let cost () = Sys.time ()\n\
         let solve_status model = if cost () > 0. then `Converged else `Diverged";
      fix =
        "Thread an explicit Lopc_prng.Rng.t, iterate in a deterministic order, \
         or use a monomorphic comparator (Float.compare, Int.equal, a \
         hand-written total order).";
    };
    {
      id = "exn-escape";
      severity = Finding.Error;
      stage = "typed";
      summary = "an exception can escape a solve_status (non-raising) entry point";
      rationale =
        "solve_status promises callers a status value instead of an exception — \
         that is the whole point of the _status variants. The analysis computes, \
         by fixpoint over the call graph, every exception constructor that can \
         escape each solve_status transitively, subtracting what enclosing \
         handlers catch; only Invalid_argument (the documented precondition \
         contract) is permitted. The finding shows a witness call chain down to \
         the raise site.";
      example =
        "let step x = if x > 10. then raise Exit else x +. 1.\n\
         let solve_status x = `Converged (step x)";
      fix =
        "Catch the exception and map it onto the status result, validate \
         earlier with invalid_arg, or suppress if the raise is provably \
         unreachable.";
    };
    {
      id = "rng-stream-discipline";
      severity = Finding.Error;
      stage = "typed";
      summary = "a stream produced by Rng.split is consumed more than once on some path";
      rationale =
        "Rng.split exists so each consumer owns an independent stream; if one \
         child stream feeds two consumers, their draw sequences couple, and a \
         change in one consumer's draw count silently shifts the other's values \
         — replay breaks with no error anywhere. The rule treats each split \
         result as a linear resource: at most one use along any execution path \
         (branch arms are alternatives; loop and lambda bodies count double).";
      example =
        "let pair rng =\n\
        \  let s = Rng.split rng in\n\
        \  (Rng.float s 1.0, Rng.float s 1.0)";
      fix =
        "Split once per consumer: let s1 = Rng.split rng in let s2 = Rng.split \
         rng in ... — never alias or re-draw from the same child.";
    };
    {
      id = "parallel-rng-capture";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "a task passed to Parallel.run/map captures a raw Rng.t from outside the \
         task";
      rationale =
        "Tasks handed to Parallel.run execute on whichever domain claims them, in \
         whatever order workers reach them. Parallel.run is order-insensitive \
         exactly when every task draws only from its own pre-split stream, \
         derived serially and keyed on the task index; a task that draws from or \
         splits a generator captured from the enclosing scope advances shared \
         state in worker completion order, so its values depend on scheduling. \
         Arrays of streams (Rng.t array, one element per task) are the \
         sanctioned carrier and are not flagged.";
      example =
        "let noisy pool rng =\n\
        \  Parallel.run pool (Array.init 4 (fun _ -> fun () -> Rng.float rng))";
      fix =
        "Derive per-task streams before building the task array: let streams = \
         Rng.split_n rng n in Parallel.run pool (Array.init n (fun i -> fun () \
         -> Rng.float streams.(i))).";
    };
    {
      id = "unbounded-retry";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "a while loop reachable from a solver, simulator or lib/obs entry with no \
         budget, cancellation token, or iteration bound in sight";
      rationale =
        "The supervised runtime can only stop work that polls a budget: fuel and \
         cancellation are checked once per iteration, so a retry or polling loop \
         that never consults a budget, token, or explicit bound is precisely the \
         loop that wedges the process when the model leaves its convergent \
         regime. The analysis walks the call graph from every solve/solve_status \
         entry, the simulator and lib/obs, and flags each while loop whose enclosing \
         definition mentions no budget-ish identifier (fuel, budget, cancel, \
         max_, deadline, remaining) and no direct Budget.* / Cancel.* \
         reference. for loops are inherently bounded and exempt; the finding \
         shows the call chain to the loop.";
      example =
        "let rec settle state =\n\
        \  while not (converged state) do\n\
        \    relax state\n\
        \  done\n\
         let solve_status model = settle model; `Converged";
      fix =
        "Poll a Lopc_robust.Budget.t (or Cancel.t) once per iteration and turn \
         exhaustion into an Exhausted status, or bound the loop with an \
         explicit max_*/fuel counter; suppress only when the loop is provably \
         bounded by its data.";
    };
    {
      id = "domain-shared-mutation";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "a task passed to Parallel.run/map writes a mutable location visible \
         outside the task";
      rationale =
        "Tasks run concurrently on the pool's domains, so a plain \
         (non-Atomic) write to anything visible outside the task — a ref or \
         array captured from the enclosing scope, a module-level mutable, or a \
         captured mutable value handed to a function that writes through its \
         parameters — is a data race: the final contents depend on which \
         domain got there last. The effect analysis follows calls to a \
         fixpoint, so the write is found however deep the helper that performs \
         it; the finding shows the call chain. Mutable state allocated inside \
         the task body is private and fine; Atomic.* operations are the \
         sanctioned cross-domain primitives and are exempt.";
      example =
        "let count pool xs =\n\
        \  let hits = ref 0 in\n\
        \  Parallel.run pool (Array.map (fun x -> fun () -> \n\
        \    if x > 0 then hits := !hits + 1) xs)";
      fix =
        "Give each task its own slot — a results array indexed by task, \
         allocated at plan-build time, combined after the join — or make the \
         shared cell an Atomic and use its read-modify-write operations.";
    };
    {
      id = "atomic-read-modify-write";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "Atomic.get followed by Atomic.set on the same cell in one function";
      rationale =
        "A get/set pair on an Atomic.t is a check-then-act, not an atomic \
         update: any write another domain lands between the get and the set is \
         silently overwritten. Atomicity of the individual operations does not \
         compose — the cell ends up exactly as racy as a plain ref, while \
         looking synchronised. Cells freshly allocated in the same function \
         are exempt, since set-after-make is initialisation before sharing.";
      example = "let bump c = Atomic.set c (Atomic.get c + 1)";
      fix =
        "Use Atomic.incr/Atomic.fetch_and_add for counters, or a \
         compare_and_set retry loop for general updates; reserve Atomic.set \
         for initialisation before the cell is shared.";
    };
    {
      id = "mutable-toplevel-escape";
      severity = Finding.Warning;
      stage = "typed";
      summary = "a task passed to Parallel.run/map reads module-level mutable state";
      rationale =
        "A module-level ref, table or buffer has one instance per program, \
         shared by every task on every domain. Even read-only use inside a \
         task ties its result to whatever other code — or other tasks — have \
         done to that instance, so runs stop being a pure function of the \
         plan and replay across --jobs settings breaks. The effect analysis \
         reports reads reached through any chain of calls, with the chain.";
      example =
        "let cache : (int, float) Hashtbl.t = Hashtbl.create 64\n\
         let lookup n = Hashtbl.find_opt cache n\n\
         let eval pool plan =\n\
        \  Parallel.run pool (Array.map (fun t -> fun () -> lookup t) plan)";
      fix =
        "Allocate the state per task at plan-build time and pass it in as an \
         argument (or through the task array); a toplevel table that is \
         provably frozen before any parallel run may be suppressed with a \
         justification.";
    };
    {
      id = "probability-range";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "a value flowing into a [@lopc.prob]-annotated parameter, field or \
         binding may lie outside [0, 1]";
      rationale =
        "Every solver in this repo iterates on probabilities and utilisations \
         with hard [0, 1] domains; the contention equations silently produce \
         garbage the moment one leaves it. The interval abstract interpreter \
         tracks value ranges flow-sensitively — a guard refines the branch it \
         dominates, a raising branch contributes nothing — so a value is only \
         accepted when its interval on that path provably fits. An \
         unconstrained value (interval top) counts as a violation: the range \
         must be established by a guard, a validating constructor, or an \
         annotation on the producer.";
      example =
        "let consume ~q:(q [@lopc.prob]) = 1. -. q\n\
         let f x = consume ~q:(1. +. x) (* interval [1, inf] on any x >= 0 *)";
      fix =
        "Validate or clamp before the annotated slot (0. <= q && q <= 1., or \
         Float.min 1. (Float.max 0. q)), or annotate the producing parameter \
         so the interval carries through; suppress with a justification only \
         when the range is enforced somewhere the analysis cannot see.";
    };
    {
      id = "division-by-vanishing";
      severity = Finding.Warning;
      stage = "typed";
      summary =
        "a subtraction-shaped denominator (the 1 - u family) whose interval \
         contains 0 on some path with no dominating guard";
      rationale =
        "LoPC's contention equations divide by 1 - u terms that vanish exactly \
         at saturation, the regime every experiment pushes toward. The \
         syntactic unguarded-division rule only checks that *some* enclosing \
         conditional mentions the denominator's identifiers; the typed rule \
         supersedes it with real path sensitivity: the division is flagged \
         only when the denominator's interval *on that path* still contains \
         0 — so `if u >= 1. then ... else s /. (1. -. u)` is proven safe \
         (the else-branch refines u to [-inf, pred 1.], making the \
         denominator positive), while a guard on only one of two branches is \
         caught.";
      example =
        "let bad u s = if u < 1. then s else s /. (1. -. u)\n\
         (* guard on the wrong branch: here u >= 1., so 1 - u <= 0 *)";
      fix =
        "Guard the division so the denominator interval excludes 0 on its \
         path (if u >= 1. then ... else x /. (1. -. u)), or saturate with \
         Float.max eps (1. -. u); suppress with a justification when \
         saturation is impossible by construction.";
    };
    {
      id = "negative-cost";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "a value flowing into a [@lopc.cost]-annotated parameter, field or \
         binding may be negative or NaN";
      rationale =
        "Service times, handler costs and message counts are non-negative by \
         definition; a negative or NaN cost reaching a solver entry turns \
         the fixed point into garbage that may still converge — the worst \
         failure mode, because nothing crashes. The interval stage proves \
         non-negativity per path (subtractions are the usual culprit) and \
         rejects any flow whose interval admits values below zero, including \
         unconstrained top.";
      example =
        "type p = { st : float [@lopc.cost] }\n\
         let shrink base delta = { st = base -. delta }\n\
         (* [base - delta] has interval [-inf, inf]: delta may exceed base *)";
      fix =
        "Establish the sign with a guard or clamp (Float.max 0. x) before the \
         annotated slot, or validate at the construction boundary; suppress \
         with a justification when the invariant is enforced dynamically.";
    };
    {
      id = "unit-mismatch";
      severity = Finding.Error;
      stage = "typed";
      summary =
        "two quantities with different [@lopc.unit] tags are mixed additively";
      rationale =
        "The model mixes cycle counts, per-cycle rates and dimensionless \
         probabilities in one float type; adding a cycle count to a rate \
         typechecks and is always wrong. [@lopc.unit \"cycles\"]-style tags \
         on record fields and parameters give the absint stage a dimension \
         for each value; units propagate through +,-, min/max and bindings, \
         and an additive mix of two different known units — or a flow of a \
         known unit into a slot declared with another — is reported. \
         Multiplication clears the tag (it genuinely changes dimension).";
      example =
        "type p = { w : float [@lopc.unit \"cycles\"] }\n\
         let bad (p : p) (rate [@lopc.unit \"1/cycle\"]) = p.w +. rate";
      fix =
        "Convert explicitly before mixing (multiply by the conversion factor, \
         which clears the tag), or fix whichever [@lopc.unit] annotation is \
         wrong.";
    };
    {
      id = "test-only-export";
      severity = Finding.Warning;
      stage = "typed";
      summary = "a lib/ value that only test/, or nothing, uses";
      rationale =
        "Everything in lib/ is a claim that the reproduction needs it: the Eq \
         4.1 fixed point, the exact CTMC, the simulator and what they stand \
         on. A value that no executable or example reaches, and that no other \
         lib/ value calls, is test harness or dead code kept alive by its own \
         tests. The rule reaches from every definition outside lib/ and test/ \
         (bin/ and examples/ in the CI gate) and reports each lib/ definition \
         outside that set that no other lib/ definition references, naming a \
         test that uses it if one does. Only the root of a dead subgraph is \
         reported; once it is deleted, the compiler's unused-value warning \
         catches its helpers. A lint with no definition outside lib/ and \
         test/ reports nothing.";
      example =
        "(* lib/stats/extra.ml; only test/test_stats.ml calls it *)\n\
         let trimmed_mean xs = xs";
      fix =
        "Delete it with the tests that only check it, move it into test/ when \
         it is test harness or a reference implementation, or give it a real \
         user. Suppress with [@@lint.allow \"test-only-export\" \"<file> uses \
         it\"] only for a user outside the linted roots.";
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) entries

let pp_entry ppf e =
  Format.fprintf ppf "%s (%s, %s stage)@.  %s@.@.%s@.@.Example (violates the rule):@."
    e.id
    (Finding.severity_to_string e.severity)
    e.stage e.summary e.rationale;
  String.split_on_char '\n' e.example
  |> List.iter (fun line -> Format.fprintf ppf "    %s@." line);
  Format.fprintf ppf "@.Fix: %s@." e.fix

(* The whole catalogue as one markdown document: per-stage summary tables
   linking into a details section per rule. `lopc_lint --catalogue-md`
   prints this, a dune rule diffs it against the committed RULES.md, and
   the README points at RULES.md — so the documentation is generated from
   the same entries the tool executes and cannot drift. *)
let pp_markdown ppf () =
  let stage_entries stage = List.filter (fun e -> e.stage = stage) entries in
  let table stage =
    Format.fprintf ppf "| Rule | Severity | Summary |@.|---|---|---|@.";
    List.iter
      (fun e ->
        Format.fprintf ppf "| [`%s`](#%s) | %s | %s |@." e.id e.id
          (Finding.severity_to_string e.severity)
          e.summary)
      (stage_entries stage);
    Format.fprintf ppf "@."
  in
  Format.fprintf ppf
    "# lopc-lint rule catalogue@.@.<!-- Generated by `lopc_lint --catalogue-md`. \
     Do not edit by hand: the@.     runtest diff rule regenerates it; `dune \
     promote` accepts changes. -->@.@.Two stages: syntactic rules run on the \
     parse tree of every source file;@.typed rules need the `.cmt` trees of a \
     completed `dune build` and reason@.across modules. `lopc_lint --explain \
     <id>` prints the same text in the@.terminal.@.@.## Syntactic stage@.@.";
  table "syntactic";
  Format.fprintf ppf "## Typed stage@.@.";
  table "typed";
  Format.fprintf ppf "## Details@.";
  List.iter
    (fun e ->
      Format.fprintf ppf "@.### %s@.@.**%s, %s stage** — %s@.@.%s@.@." e.id
        (Finding.severity_to_string e.severity)
        e.stage e.summary e.rationale;
      Format.fprintf ppf "Example (violates the rule):@.@.```ocaml@.%s@.```@.@."
        e.example;
      Format.fprintf ppf "**Fix:** %s@." e.fix)
    entries
