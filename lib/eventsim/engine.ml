(* A closure scheduler over one [Event_heap]: each event's payload is its
   action, and every entry has kind 0.

   The clock lives in a one-element [float array] rather than a mutable
   float field: in a mixed record a mutable float is boxed, so every
   [t.now <- time] would allocate. A float array stores the value flat,
   making the per-event clock update a plain store. *)

type t = {
  queue : (t -> unit) Event_heap.t;
  now : float array;  (* one element; see above *)
}

(* Cancellation needs the heap, so a handle carries it. *)
type handle = { owner : t; id : Event_heap.handle }

let create () = { queue = Event_heap.create ~dummy:ignore; now = [| 0. |] }
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]

let now t = t.now.(0)
[@@lint.allow
  "test-only-export"
    "the clock a closure handler reads: Engine is kept for perfbench/workloads.ml, \
     whose replay handlers happen not to need the time"]

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.now.(0) then invalid_arg "Engine.schedule_at: scheduling into the past";
  { owner = t; id = Event_heap.push t.queue ~time ~kind:0 f }

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  schedule_at t ~time:(t.now.(0) +. delay) f
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]

let cancel h = Event_heap.cancel h.owner.queue h.id
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]

let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    t.now.(0) <- Event_heap.peek_time_exn t.queue;
    let action = Event_heap.pop_exn t.queue in
    action t;
    true
  end
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it (engine replay probe); perfbench/ is linted \
     apart until ROADMAP item 1"]
