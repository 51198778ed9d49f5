(* The clock lives in a one-element [float array] rather than a mutable
   float field: in a mixed record a mutable float is boxed, so every
   [t.now <- time] on the old layout allocated. A float array stores the
   value flat, making the per-event clock update a plain store.

   [step] dispatches without allocating: the timestamp is read unboxed
   via [peek_time_exn] and the payload comes back as the heap's stored
   [Some] cell via [pop_payload] — no [(time, event)] tuple per event. *)

type t = {
  queue : event Event_heap.t;
  now : float array;  (* one element; see above *)
  mutable executed : int;
  mutable observer : (t -> unit) option;
}

and event = { action : t -> unit; mutable cancelled : bool }

type handle = event

let create () =
  { queue = Event_heap.create (); now = [| 0. |]; executed = 0; observer = None }

let set_observer t f = t.observer <- Some f

let now t = t.now.(0)

let events_processed t = t.executed

let pending t = Event_heap.size t.queue

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.now.(0) then invalid_arg "Engine.schedule_at: scheduling into the past";
  let ev = { action = f; cancelled = false } in
  Event_heap.push t.queue ~time ev;
  ev

let schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0. then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  schedule_at t ~time:(t.now.(0) +. delay) f

let cancel ev = ev.cancelled <- true

let rec step t =
  if Event_heap.is_empty t.queue then false
  else begin
    let time = Event_heap.peek_time_exn t.queue in
    match Event_heap.pop_payload t.queue with
    | None -> false
    | Some ev ->
      if ev.cancelled then step t
      else begin
        t.now.(0) <- time;
        t.executed <- t.executed + 1;
        ev.action t;
        (match t.observer with None -> () | Some f -> f t);
        true
      end
  end
