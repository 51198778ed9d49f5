(* A closure scheduler over one [Event_heap]: every entry has kind 0, and
   its int payload is the slot of its action in [actions].

   The slot table keeps each pending event's closure until the event runs
   or is cancelled; then its slot goes back on the [free] stack and holds
   [ignore], so a fired or cancelled closure is collectable at once. A
   handle remembers the slot, but frees it only when its cancel actually
   removed the entry: a handle whose event already ran names a slot that
   may since belong to another event.

   The clock lives in a one-element [float array] rather than a mutable
   float field: in a mixed record a mutable float is boxed, so every
   [t.now <- time] would allocate. A float array stores the value flat,
   making the per-event clock update a plain store. *)

type t = {
  queue : Event_heap.t;
  now : float array;  (* one element; see above *)
  mutable actions : (t -> unit) array;
  mutable free : int array;  (* free slots of [actions], [free_count] of them *)
  mutable free_count : int;
}

(* Cancellation needs the heap and the slot, so a handle carries them. *)
type handle = { owner : t; id : Event_heap.handle; slot : int }

let create () =
  { queue = Event_heap.create (); now = [| 0. |]; actions = [||]; free = [||];
    free_count = 0 }
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]

let now t = t.now.(0)
[@@lint.allow
  "test-only-export"
    "the clock a closure handler reads: Engine is kept for perfbench/workloads.ml, \
     whose replay handlers happen not to need the time"]

(* Every slot is taken exactly when the stack is empty, so doubling the
   table frees exactly the new slots. *)
let grow t =
  let cap = Array.length t.actions in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let actions = Array.make new_cap ignore in
  Array.blit t.actions 0 actions 0 cap;
  t.actions <- actions;
  t.free <- Array.init new_cap (fun k -> new_cap - 1 - k);
  t.free_count <- new_cap - cap

let release t slot =
  t.actions.(slot) <- ignore;
  t.free.(t.free_count) <- slot;
  t.free_count <- t.free_count + 1

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.now.(0) then invalid_arg "Engine.schedule_at: scheduling into the past";
  if t.free_count = 0 then grow t;
  t.free_count <- t.free_count - 1;
  let slot = t.free.(t.free_count) in
  t.actions.(slot) <- f;
  { owner = t; id = Event_heap.push t.queue ~time ~kind:0 slot; slot }

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  schedule_at t ~time:(t.now.(0) +. delay) f
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]

(* [Event_heap.cancel] is a no-op on a handle whose entry already left
   the heap, so the size tells whether this cancel removed it. *)
let cancel h =
  let t = h.owner in
  let before = Event_heap.size t.queue in
  Event_heap.cancel t.queue h.id;
  if Event_heap.size t.queue < before then release t h.slot
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]

let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    let slot = Event_heap.pop_exn t.queue in
    t.now.(0) <- Event_heap.popped_time t.queue;
    let action = t.actions.(slot) in
    release t slot;
    action t;
    true
  end
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]
