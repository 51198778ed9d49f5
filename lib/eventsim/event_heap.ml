(* Struct-of-arrays binary min-heap. Heap position [i] holds the entry's
   timestamp in [times.(i)], its sequence number in [seqs.(i)] and the
   index of its payload slot in [slots.(i)]: flat unboxed arrays, so a
   sift compares and moves plain floats and ints, never chases a pointer
   and never runs the write barrier. A payload is written once, into
   [data.(slot)], when it is pushed, and read back once when it is popped.

   [slots] is always a permutation of [0, capacity): positions below
   [size] name the slots of live entries and positions from [size] up name
   the free slots, so the next push takes [slots.(size)] and a pop hands
   its slot back at the position the heap just vacated. There is no
   separate free list.

   Sifts are hole-based: the moving entry stays in registers while the
   entries it passes shift by one level, and it is written once where the
   hole stops.

   A free slot holds [None]: a popped entry must not linger in [data],
   because event payloads are closures over node state and long
   simulations would otherwise retain one dead closure per pop. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable data : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

(* Capacity kept through a drain: ping-pong workloads pop the heap to
   empty once per event, and re-allocating a fresh backing array per pop
   costs more than the handful of nulled slots retained here. Above this
   the arrays are dropped so a burst does not pin its high-water mark. *)
let retained_capacity = 64

let create () =
  { times = [||]; seqs = [||]; slots = [||]; data = [||]; size = 0; next_seq = 0 }

let size t = t.size

let is_empty t = t.size = 0

(* Entry ordering: earlier time first; insertion order breaks ties. Spelled
   as an explicit monomorphic comparison — Float time then int seq — so
   the total order (including NaN placement, which push rejects anyway)
   is defined here and not by the polymorphic compare runtime. Sequence
   numbers are unique, so the order is total and strict. Inlined, so the
   float arguments are never boxed. *)
let before ti si tj sj = ti < tj || (Float.equal ti tj && si < sj) [@@inline]

(* Only a full heap grows, so every slot below the old capacity is live
   and the new positions take the new slots in order. *)
let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let slots = Array.init new_cap Fun.id in
  let data = Array.make new_cap None in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.data 0 data 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.data <- data

let push t ~time x =
  if not (Float.is_finite time) then invalid_arg "Event_heap.push: non-finite time";
  if t.size = Array.length t.data then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  let slot = slots.(!i) in
  t.data.(slot) <- Some x;
  t.size <- t.size + 1;
  (* Sift the hole up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before time seq times.(parent) seqs.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot
[@@lint.allow
  "unbounded-retry"
    "the sift-up loop strictly decreases the index toward the root each \
     iteration, so it is bounded by the heap depth (log of size); no budget \
     can be threaded below the simulator's per-event granularity"]

(* Remove the root, restore the heap, and hand back the root's payload
   cell as stored — the caller receives the existing [Some] block, so the
   dispatch path allocates nothing. *)
let pop_payload t =
  if t.size = 0 then None
  else begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let top_slot = slots.(0) in
    let top = t.data.(top_slot) in
    t.data.(top_slot) <- None;
    t.size <- t.size - 1;
    let size = t.size in
    if size = 0 then begin
      (* Heap drained: keep a small backing array so drain-per-event
         workloads do not re-allocate on every push; anything larger is
         dropped wholesale. *)
      if Array.length t.data > retained_capacity then begin
        t.times <- [||];
        t.seqs <- [||];
        t.slots <- [||];
        t.data <- [||]
      end
    end
    else begin
      (* The last entry fills the root's hole; the root's slot becomes the
         free slot at the position the last entry left. *)
      let time = times.(size) and seq = seqs.(size) and slot = slots.(size) in
      slots.(size) <- top_slot;
      (* Sift the hole down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= size then continue := false
        else begin
          let r = l + 1 in
          let c = if r < size && before times.(r) seqs.(r) times.(l) seqs.(l) then r else l in
          if before times.(c) seqs.(c) time seq then begin
            times.(!i) <- times.(c);
            seqs.(!i) <- seqs.(c);
            slots.(!i) <- slots.(c);
            i := c
          end
          else continue := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      slots.(!i) <- slot
    end;
    top
  end
[@@lint.allow
  "unbounded-retry"
    "the sift-down loop strictly descends the heap (the index at least \
     doubles each iteration), so it is bounded by the heap depth; no budget \
     can be threaded below the simulator's per-event granularity"]

let peek_time_exn t =
  if t.size = 0 then invalid_arg "Event_heap.peek_time_exn: empty heap"
  else t.times.(0)
