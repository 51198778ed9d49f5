(* Struct-of-arrays binary min-heap. Heap position [i] holds the entry's
   timestamp in [times.(i)], its sequence number in [seqs.(i)] and the
   index of its payload slot in [slots.(i)]: flat unboxed arrays, so a
   sift compares and moves plain floats and ints, never chases a pointer
   and never runs the write barrier. An entry's kind and payload are
   written once, into [kinds.(slot)] and [data.(slot)], when it is pushed,
   and read back once when it is popped. [positions] inverts [slots]: it
   gives each slot's heap position, so a handle (which names a slot) finds
   its entry in O(1) and a cancellation removes it with one sift.

   [slots] is always a permutation of [0, capacity): positions below
   [size] name the slots of live entries and positions from [size] up name
   the free slots, so the next push takes [slots.(size)] and a removal
   hands its slot back at the position the heap just vacated. There is no
   separate free list, and a slot is live exactly when its position is
   below [size].

   Sifts are hole-based: the moving entry stays in registers while the
   entries it passes shift by one level, and it is written once where the
   hole stops. The sifts take only int arguments (the entry to move is
   read from its position), so no float crosses a call.

   A free slot holds [dummy]: a removed entry must not linger in [data],
   because event payloads may be closures over simulation state and long
   runs would otherwise retain one dead payload per pop. *)
type 'a t = {
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable positions : int array;
  mutable kinds : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable popped_kind : int;
}

(* A handle packs the entry's slot into the low [slot_bits] bits and the
   low 32 bits of its sequence number above them, so it stays a
   non-negative immediate int. Sequence numbers are unique, so a handle
   whose slot now holds a later entry no longer matches; the 32-bit
   generation repeats only after 2^32 further pushes. *)
type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let generation_mask = (1 lsl 32) - 1
let no_handle = -1

(* Capacity kept through a drain: ping-pong workloads pop the heap to
   empty once per event, and re-allocating a fresh backing array per pop
   costs more than the handful of dummy slots retained here. Above this
   the arrays are dropped so a burst does not pin its high-water mark. *)
let retained_capacity = 64

let create ~dummy =
  { dummy; times = [||]; seqs = [||]; slots = [||]; positions = [||]; kinds = [||];
    data = [||]; size = 0; next_seq = 0; popped_kind = 0 }

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
  let cap = Array.length t.slots in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  if new_cap > 1 lsl slot_bits then invalid_arg "Event_heap.push: too many pending entries";
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let slots = Array.init new_cap Fun.id in
  let positions = Array.init new_cap Fun.id in
  let kinds = Array.make new_cap 0 in
  let data = Array.make new_cap t.dummy in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.positions 0 positions 0 cap;
  Array.blit t.kinds 0 kinds 0 cap;
  Array.blit t.data 0 data 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.positions <- positions;
  t.kinds <- kinds;
  t.data <- data

(* Move the entry at position [i] toward the root until its parent comes
   first. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and slots = t.slots and positions = t.positions in
  let time = times.(i) and seq = seqs.(i) and slot = slots.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before time seq times.(parent) seqs.(parent) then begin
      let moved = slots.(parent) in
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- moved;
      positions.(moved) <- !i;
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  positions.(slot) <- !i
[@@lint.allow
  "unbounded-retry"
    "the sift-up loop strictly decreases the index toward the root each \
     iteration, so it is bounded by the heap depth (log of size); no budget \
     can be threaded below the simulator's per-event granularity"]

(* Move the entry at position [i] away from the root until both children
   come after it. *)
let sift_down t i =
  let times = t.times and seqs = t.seqs and slots = t.slots and positions = t.positions in
  let size = t.size in
  let time = times.(i) and seq = seqs.(i) and slot = slots.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c = if r < size && before times.(r) seqs.(r) times.(l) seqs.(l) then r else l in
      if before times.(c) seqs.(c) time seq then begin
        let moved = slots.(c) in
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- moved;
        positions.(moved) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  positions.(slot) <- !i
[@@lint.allow
  "unbounded-retry"
    "the sift-down loop strictly descends the heap (the index at least \
     doubles each iteration), so it is bounded by the heap depth; no budget \
     can be threaded below the simulator's per-event granularity"]

let push t ~time ~kind x =
  if not (Float.is_finite time) then invalid_arg "Event_heap.push: non-finite time";
  if t.size = Array.length t.slots then grow t;
  let i = t.size in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = t.slots.(i) in
  t.kinds.(slot) <- kind;
  t.data.(slot) <- x;
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.size <- i + 1;
  sift_up t i;
  ((seq land generation_mask) lsl slot_bits) lor slot

(* Remove the entry at position [i]: the last entry fills the hole and
   sifts whichever way restores the order, and the removed entry's slot
   becomes the free slot at the position the last entry left. *)
let remove_at t i =
  let slot = t.slots.(i) in
  t.data.(slot) <- t.dummy;
  let last = t.size - 1 in
  t.size <- last;
  if last = 0 then begin
    (* Heap drained: keep a small backing array so drain-per-event
       workloads do not re-allocate on every push; anything larger is
       dropped wholesale. *)
    if Array.length t.slots > retained_capacity then begin
      t.times <- [||];
      t.seqs <- [||];
      t.slots <- [||];
      t.positions <- [||];
      t.kinds <- [||];
      t.data <- [||]
    end
  end
  else if i < last then begin
    let moved = t.slots.(last) in
    t.times.(i) <- t.times.(last);
    t.seqs.(i) <- t.seqs.(last);
    t.slots.(i) <- moved;
    t.positions.(moved) <- i;
    t.slots.(last) <- slot;
    t.positions.(slot) <- last;
    let parent = (i - 1) / 2 in
    if i > 0 && before t.times.(i) t.seqs.(i) t.times.(parent) t.seqs.(parent) then
      sift_up t i
    else sift_down t i
  end

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_heap.pop_exn: empty heap";
  let slot = t.slots.(0) in
  let x = t.data.(slot) in
  t.popped_kind <- t.kinds.(slot);
  remove_at t 0;
  x

let popped_kind t = t.popped_kind

let cancel t h =
  let slot = h land slot_mask in
  if h >= 0 && slot < Array.length t.positions then begin
    let i = t.positions.(slot) in
    if i < t.size && t.seqs.(i) land generation_mask = h lsr slot_bits then remove_at t i
  end

let peek_time_exn t =
  if t.size = 0 then invalid_arg "Event_heap.peek_time_exn: empty heap"
  else t.times.(0)
