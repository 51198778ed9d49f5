(* Tests for lopc_eventsim: heap ordering, engine semantics, and an M/M/1
   queue simulated on the engine against theory. *)

module Engine = Lopc_eventsim.Engine
module Rng = Lopc_prng.Rng

module Event_heap = Lopc_eventsim.Event_heap

(* Heaps of [Some] payloads of any type (one [None] dummy serves them
   all), pushed with kind 0 and popped as the next (time, payload), the
   way the engine reads them. *)
module Heap = struct
  include Event_heap

  let create () = create ~dummy:None
  let push h ~time x = ignore (push h ~time ~kind:0 (Some x))

  let pop h =
    if is_empty h then None
    else
      let time = peek_time_exn h in
      Option.map (fun x -> (time, x)) (pop_exn h)
end

(* Step the engine until no event is left, until this call has executed
   [max_events] events, or, with [until], through the events due by the
   horizon: a sentinel scheduled there stops the loop, so the clock ends
   on the horizon. *)
let run ?until ?max_events e =
  let stop = ref false in
  Option.iter
    (fun horizon -> ignore (Engine.schedule_at e ~time:horizon (fun _ -> stop := true)))
    until;
  let executed = ref 0 in
  let budget_left () = match max_events with None -> true | Some m -> !executed < m in
  while (not !stop) && budget_left () && Engine.step e do
    incr executed
  done

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> Alcotest.fail "empty" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5. i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, v) -> Alcotest.(check int) "insertion order" i v
    | None -> Alcotest.fail "empty"
  done

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~time:10. 10;
  Heap.push h ~time:5. 5;
  (match Heap.pop h with
  | Some (t, v) ->
    Alcotest.(check (float 0.)) "time" 5. t;
    Alcotest.(check int) "value" 5 v
  | None -> Alcotest.fail "empty");
  Heap.push h ~time:1. 1;
  (match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "later insert wins" 1 v
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "one left" 1 (Heap.size h)

let test_heap_many_random () =
  let h = Heap.create () in
  let g = Rng.create 5 in
  let times = Array.init 1000 (fun _ -> Rng.float g) in
  Array.iter (fun t -> Heap.push h ~time:t t) times;
  let last = ref neg_infinity in
  for _ = 1 to 1000 do
    match Heap.pop h with
    | Some (t, _) ->
      if t < !last then Alcotest.fail "heap order violated";
      last := t
    | None -> Alcotest.fail "unexpected empty"
  done

let test_heap_rejects_nan () =
  let h = Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: non-finite time")
    (fun () -> Heap.push h ~time:Float.nan ())

(* Regression: a popped entry must be collectable immediately. Before the
   fix, a pop left entries reachable through vacated slots above [size], so
   long simulations retained dead payload closures. Probed through a weak array so the test sees exactly
   what the GC sees. *)
let test_heap_releases_popped_payloads () =
  let h = Heap.create () in
  let n = 64 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Heap.push h ~time:(Float.of_int i) payload
  done;
  (* Pop half: those payloads must die while the rest stay reachable. *)
  for _ = 1 to n / 2 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to (n / 2) - 1 do
    if Weak.check weak i then
      Alcotest.failf "popped payload %d still reachable from the heap" i
  done;
  for i = n / 2 to n - 1 do
    if not (Weak.check weak i) then Alcotest.failf "live payload %d was lost" i
  done;
  (* Pop the rest: the backing array must not keep anything alive. *)
  for _ = 1 to n / 2 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.check weak i then
      Alcotest.failf "payload %d survived a full drain" i
  done

(* At a steady depth of 32, a pop and a push allocate nothing: sifts move
   only unboxed times, seqs and slot indices, the payload is an immediate
   and the handle an int. The times are boxed list elements, so handing
   one to [push] allocates nothing in the test loop itself. The budget
   leaves room for the measurement's own boxed counter, 2 words over
   [n] rounds. *)
let test_heap_push_pop_allocation () =
  let h = Event_heap.create ~dummy:0 in
  let times = List.init 61 (fun i -> Float.of_int ((i * 37) mod 61)) in
  let rec churn n = function
    | _ when n = 0 -> ()
    | [] -> churn n times
    | time :: rest ->
      if Event_heap.size h >= 32 then ignore (Sys.opaque_identity (Event_heap.pop_exn h));
      ignore (Sys.opaque_identity (Event_heap.push h ~time ~kind:1 n));
      churn (n - 1) rest
  in
  churn 1_000 times;
  Alcotest.(check int) "depth" 32 (Event_heap.size h);
  let n = 10_000 in
  let words = Harness.minor_words_per ~n (fun () -> churn n times) in
  if words > 0.01 then Alcotest.failf "push+pop allocates %g words (budget: none)" words

let test_engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2. (fun e -> log := (Engine.now e, "b") :: !log));
  ignore (Engine.schedule e ~delay:1. (fun e -> log := (Engine.now e, "a") :: !log));
  run e;
  Alcotest.(check (list (pair (float 0.) string))) "ordered with clock"
    [ (1., "a"); (2., "b") ]
    (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let finished = ref 0. in
  ignore
    (Engine.schedule e ~delay:1. (fun e ->
         ignore (Engine.schedule e ~delay:1. (fun e -> finished := Engine.now e))));
  run e;
  Alcotest.(check (float 0.)) "nested schedule" 2. !finished

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1. (fun _ -> fired := true) in
  Engine.cancel h;
  run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(Float.of_int i) (fun _ -> incr count))
  done;
  run ~until:5.5 e;
  Alcotest.(check int) "only events before horizon" 5 !count;
  Alcotest.(check (float 0.)) "clock advanced to horizon" 5.5 (Engine.now e);
  run e;
  Alcotest.(check int) "rest run later" 10 !count


let test_engine_max_events () =
  let e = Engine.create () in
  let rec reschedule e = ignore (Engine.schedule e ~delay:1. reschedule) in
  reschedule e;
  run ~max_events:100 e;
  (* The k-th event runs at time k. *)
  Alcotest.(check (float 0.)) "stopped at budget" 100. (Engine.now e)

let test_engine_no_past_scheduling () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5. (fun _ -> ()));
  run e;
  Alcotest.(check bool) "negative absolute time rejected" true
    (try
       ignore (Engine.schedule_at e ~time:1. (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* M/M/1 queue built directly on the engine: arrivals Poisson(lambda),
   service exp(mu). Mean customers in system must match rho/(1-rho). *)
let test_mm1_against_theory () =
  let lambda = 0.7 and mu = 1.0 in
  let e = Engine.create () in
  let g = Rng.create 99 in
  let in_system = ref 0 in
  let area = ref 0. and last = ref 0. in
  let advance now =
    area := !area +. (Float.of_int !in_system *. (now -. !last));
    last := now
  in
  let rec depart e =
    advance (Engine.now e);
    in_system := !in_system - 1;
    if !in_system > 0 then
      ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. mu)) depart)
  in
  let rec arrive e =
    advance (Engine.now e);
    in_system := !in_system + 1;
    if !in_system = 1 then
      ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. mu)) depart);
    ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. lambda)) arrive)
  in
  ignore (Engine.schedule e ~delay:(Rng.exponential g (1. /. lambda)) arrive);
  run ~until:200_000. e;
  advance (Engine.now e);
  let mean_n = !area /. Engine.now e in
  let rho = lambda /. mu in
  let expected =
    (rho /. (1. -. rho)
    [@lint.allow
      "unguarded-division"
        "closed-form M/M/1 reference with fixed test parameters lambda < mu, so rho \
         is a constant strictly below 1"])
  in
  if Float.abs (mean_n -. expected) > 0.12 *. expected then
    Alcotest.failf "M/M/1 mean customers %g, theory %g" mean_n expected

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let out = ref [] in
      let rec drain () =
        match Heap.pop h with
        | Some (t, ()) ->
          out := t :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      let popped = List.rev !out in
      popped = List.sort compare times)

(* Repeated drains (the push/pop-to-empty churn the retention policy is
   for) must stay correct across recycled backing arrays, ties included. *)
let test_heap_drain_churn () =
  let h = Heap.create () in
  for round = 0 to 99 do
    for i = 0 to 31 do
      Heap.push h ~time:(Float.of_int (i mod 4)) ((round * 32) + i)
    done;
    let popped = ref 0 in
    let last_time = ref neg_infinity in
    let last_id = ref (-1) in
    let continue = ref true in
    while !continue do
      match Heap.pop h with
      | None -> continue := false
      | Some (t, id) ->
        incr popped;
        if t < !last_time then Alcotest.fail "order violated across churn";
        (* Equal times must come back in insertion order even after the
           arrays have been dropped and re-grown between rounds. *)
        if Float.equal t !last_time && id <= !last_id then
          Alcotest.fail "tie order violated across churn";
        last_time := t;
        last_id := id
    done;
    Alcotest.(check int) "drained the round" 32 !popped
  done;
  Alcotest.(check bool) "empty after churn" true (Heap.is_empty h)

(* Reference-model law: on any interleaving of pushes and pops — times
   drawn to force heavy ties, sub-millisecond clusters and 1e6-wide spans —
   the heap pops exactly what a stable sort of the pending items by time
   (so insertion order among ties, i.e. [(time, seq)]) puts first. *)
let time_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map Float.of_int (QCheck.Gen.int_range 0 20) (* heavy ties *);
      QCheck.Gen.float_range 0. 1000.;
      QCheck.Gen.float_range 0. 0.001 (* sub-millisecond clusters *);
      QCheck.Gen.float_range 0. 1e6 (* wide spans *);
    ]

let arb_queue_workload =
  let open QCheck in
  let op_gen =
    Gen.frequency
      [ (3, Gen.map (fun t -> `Push t) time_gen); (2, Gen.return `Pop) ]
  in
  let print ops =
    String.concat ";"
      (List.map
         (function `Push t -> Printf.sprintf "push %h" t | `Pop -> "pop")
         ops)
  in
  make ~print Gen.(list_size (int_range 0 400) op_gen)

let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap matches stable-sort model" ~count:300
    arb_queue_workload (fun ops ->
      let h = Heap.create () in
      (* Pending [(time, id)] items; ids count up, so list order among equal
         times is insertion order. *)
      let model = ref [] in
      let id = ref 0 in
      let same_pop () =
        let expected =
          match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !model with
          | [] -> None
          | first :: rest ->
            model := rest;
            Some first
        in
        (match (Heap.pop h, expected) with
        | None, None -> true
        | Some (th, vh), Some (tm, vm) -> Float.equal th tm && vh = vm
        | Some _, None | None, Some _ -> false)
        && Heap.size h = List.length !model
      in
      List.for_all
        (function
          | `Push t ->
            incr id;
            Heap.push h ~time:t !id;
            model := !model @ [ (t, !id) ];
            Heap.size h = List.length !model
          | `Pop -> same_pop ())
        ops
      &&
      (* Drain what is left, still pop-for-pop, then both are empty. *)
      let rec drain () = if !model = [] then same_pop () else same_pop () && drain () in
      drain ())

(* Pushes, pops and cancels, where a cancel names the [k mod n]-th of the
   [n] handles issued so far, newest first: live, already popped, already
   cancelled, or with its slot since reused by a later push. *)
let arb_cancel_workload =
  let open QCheck in
  let op_gen =
    Gen.frequency
      [
        (4, Gen.map (fun t -> `Push t) time_gen);
        (2, Gen.return `Pop);
        (2, Gen.map (fun k -> `Cancel k) Gen.nat);
      ]
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | `Push t -> Printf.sprintf "push %h" t
           | `Pop -> "pop"
           | `Cancel k -> Printf.sprintf "cancel %d" k)
         ops)
  in
  make ~print Gen.(list_size (int_range 0 400) op_gen)

(* The handle a cancel names, and the model without its entry. Removing an
   entry the model no longer holds changes nothing: a dead handle must
   leave the heap alone. *)
let cancel_in_model handles model k =
  match handles with
  | [] -> None
  | _ ->
    let handle, id = List.nth handles (k mod List.length handles) in
    Some (handle, List.filter (fun (_, j) -> j <> id) model)

let stable_first model =
  match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) model with
  | [] -> None
  | (t, id) :: _ -> Some (t, id, List.filter (fun (_, j) -> j <> id) model)

(* Reference-model law with eager cancellation: after every step the heap
   holds exactly the model's live entries. Each pop is the stable-sort
   first of them, with the kind it was pushed with; [size] counts live
   entries only; and cancelling a handle whose entry already ran or was
   cancelled, even after its slot was reused, is a no-op. *)
let prop_heap_cancel_matches_model =
  QCheck.Test.make ~name:"heap with cancellation matches live-entry model" ~count:300
    arb_cancel_workload (fun ops ->
      let h = Event_heap.create ~dummy:(-1) in
      let kind_of id = id mod 5 in
      let model = ref [] and handles = ref [] and next = ref 0 in
      let pop_matches () =
        match stable_first !model with
        | None -> Event_heap.is_empty h
        | Some (t, id, rest) ->
          model := rest;
          Float.equal (Event_heap.peek_time_exn h) t
          && Event_heap.pop_exn h = id
          && Event_heap.popped_kind h = kind_of id
      in
      let step = function
        | `Push t ->
          incr next;
          let id = !next in
          handles := (Event_heap.push h ~time:t ~kind:(kind_of id) id, id) :: !handles;
          model := !model @ [ (t, id) ];
          true
        | `Pop -> pop_matches ()
        | `Cancel k ->
          (match cancel_in_model !handles !model k with
          | None -> ()
          | Some (handle, rest) ->
            Event_heap.cancel h handle;
            model := rest);
          true
      in
      List.for_all (fun op -> step op && Event_heap.size h = List.length !model) ops
      &&
      let rec drain () = !model = [] || (pop_matches () && drain ()) in
      drain () && Event_heap.is_empty h)

(* The same law through the closure engine: [step] runs the stable-sort
   first live event at its time, a cancelled event never runs, and [step]
   reports [false] exactly when the model is empty. Delays come from
   [time_gen], so zero delays and ties are common. *)
let prop_engine_cancel_matches_model =
  QCheck.Test.make ~name:"engine with cancellation matches live-event model" ~count:300
    arb_cancel_workload (fun ops ->
      let e = Engine.create () in
      let ran = ref (-1) in
      let model = ref [] and handles = ref [] and next = ref 0 in
      let step_matches () =
        match stable_first !model with
        | None -> not (Engine.step e)
        | Some (t, id, rest) ->
          model := rest;
          Engine.step e && !ran = id && Float.equal (Engine.now e) t
      in
      let step = function
        | `Push delay ->
          incr next;
          let id = !next in
          let time = Engine.now e +. delay in
          handles := (Engine.schedule e ~delay (fun _ -> ran := id), id) :: !handles;
          model := !model @ [ (time, id) ];
          true
        | `Pop -> step_matches ()
        | `Cancel k ->
          (match cancel_in_model !handles !model k with
          | None -> ()
          | Some (handle, rest) ->
            Engine.cancel handle;
            model := rest);
          true
      in
      List.for_all step ops
      &&
      let rec drain () = if !model = [] then step_matches () else step_matches () && drain () in
      drain ())

(* A handle outlives its entry: once the entry ran or was cancelled, the
   handle names nothing, even when a later push reuses its slot. *)
let test_heap_stale_handles () =
  let h = Event_heap.create ~dummy:"" in
  let a = Event_heap.push h ~time:1. ~kind:0 "a" in
  Alcotest.(check string) "a runs" "a" (Event_heap.pop_exn h);
  let b = Event_heap.push h ~time:2. ~kind:0 "b" in
  Event_heap.cancel h a;
  Alcotest.(check int) "a's stale handle spares b in a's slot" 1 (Event_heap.size h);
  Event_heap.cancel h b;
  Event_heap.cancel h b;
  Alcotest.(check int) "b cancelled once" 0 (Event_heap.size h);
  ignore (Event_heap.push h ~time:3. ~kind:0 "c");
  Event_heap.cancel h b;
  Event_heap.cancel h Event_heap.no_handle;
  Alcotest.(check string) "c survives both" "c" (Event_heap.pop_exn h)

(* Execution order of the schedule below: event indices, with [fN] the
   follow-up event N schedules one time unit later. *)
let golden_engine_log =
  "39;21;36;0;f0;25;f25;1;29;19;30;f30;37;2;44;48;6;28;46;33;9;23;43;32;49;42;16;\
   47;22;4;34;11;40;41;f40;14;18;7;26;8;20;f20;12;13;5;f5;27;15;f15;35;f35;"

(* One schedule of cascading events and cancellations ([i mod 7 = 3])
   checked against the golden execution order: each event runs at its
   scheduled time, every [step] that returns [true] ran exactly one
   action, and cancelled events never run. *)
let test_engine_observer_and_cancellation () =
  let e = Engine.create () in
  let log = Buffer.create 256 in
  let ran = ref 0 in
  let observed = ref 0 in
  let g = Rng.create 11 in
  let record e ~time label =
    if not (Float.equal (Engine.now e) time) then
      Alcotest.failf "%s ran at %h, scheduled for %h" label (Engine.now e) time;
    incr ran;
    Buffer.add_string log (label ^ ";")
  in
  for i = 0 to 49 do
    let t = Rng.float g *. 100. in
    let h =
      Engine.schedule_at e ~time:t (fun e ->
          record e ~time:t (string_of_int i);
          if i mod 5 = 0 then
            ignore
              (Engine.schedule e ~delay:1. (fun e ->
                   record e ~time:(t +. 1.) (Printf.sprintf "f%d" i))))
    in
    if i mod 7 = 3 then Engine.cancel h
  done;
  while Engine.step e do
    incr observed;
    if !observed <> !ran then
      Alcotest.failf "step %d returned after %d actions" !observed !ran
  done;
  Alcotest.(check string) "golden execution order" golden_engine_log
    (Buffer.contents log);
  (* 50 scheduled - 7 cancelled + 8 follow-ups (i mod 5 = 0, minus the
     cancelled 10 and 45). *)
  Alcotest.(check int) "events processed" 51 !observed;
  let entries = String.split_on_char ';' (Buffer.contents log) in
  for i = 0 to 49 do
    if i mod 7 = 3 && List.mem (string_of_int i) entries then
      Alcotest.failf "cancelled event %d ran" i
  done

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap FIFO tie-breaking" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap interleaved push/pop" `Quick test_heap_interleaved;
    Alcotest.test_case "heap random stress" `Quick test_heap_many_random;
    Alcotest.test_case "heap rejects non-finite time" `Quick test_heap_rejects_nan;
    Alcotest.test_case "heap releases popped payloads" `Quick
      test_heap_releases_popped_payloads;
    Alcotest.test_case "engine ordering and clock" `Quick test_engine_order_and_clock;
    Alcotest.test_case "engine cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine cancellation" `Quick test_engine_cancel;
    Alcotest.test_case "engine run until horizon" `Quick test_engine_until;
    Alcotest.test_case "engine event budget" `Quick test_engine_max_events;
    Alcotest.test_case "engine rejects past scheduling" `Quick test_engine_no_past_scheduling;
    Alcotest.test_case "M/M/1 against theory" `Slow test_mm1_against_theory;
    Alcotest.test_case "heap drain churn" `Quick test_heap_drain_churn;
    Alcotest.test_case "engine observer and cancellation" `Quick
      test_engine_observer_and_cancellation;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_matches_model;
    Alcotest.test_case "heap push+pop allocation budget" `Quick test_heap_push_pop_allocation;
    QCheck_alcotest.to_alcotest prop_heap_cancel_matches_model;
    QCheck_alcotest.to_alcotest prop_engine_cancel_matches_model;
    Alcotest.test_case "heap stale handles" `Quick test_heap_stale_handles;
  ]
