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

   Payloads are ints, so [data] is an int array: its stores are plain
   writes, and a vacated slot needs no reset, because an int keeps
   nothing alive.

   A lane is a FIFO ring of entries pushed in nondecreasing time order,
   struct-of-arrays like the heap, with [len] entries from [head]; its
   capacity is a power of two. Lane entries take their sequence numbers
   from the heap's counter, so a lane's head is its (time, seq)-least
   entry and the earliest entry overall is the least of the heap root and
   the lane heads. *)
type lane_ring = {
  mutable ring_times : float array;
  mutable ring_seqs : int array;
  mutable ring_kinds : int array;
  mutable ring_data : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable positions : int array;
  mutable kinds : int array;
  mutable data : int array;
  mutable size : int;  (* heap entries; lane entries are counted in [in_lanes] *)
  mutable next_seq : int;
  mutable popped_kind : int;
  popped_time : float array;  (* one element, so the store never boxes *)
  mutable lanes : lane_ring array;
  mutable in_lanes : int;
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
   costs more than the handful of slots retained here. Above this
   the arrays are dropped so a burst does not pin its high-water mark. *)
let retained_capacity = 64

let create () =
  { times = [||]; seqs = [||]; slots = [||]; positions = [||]; kinds = [||];
    data = [||]; size = 0; next_seq = 0; popped_kind = 0; popped_time = [| 0. |];
    lanes = [||]; in_lanes = 0 }

type lane = int

let size t = t.size + t.in_lanes

let is_empty t = t.size = 0 && t.in_lanes = 0

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
  let data = Array.make new_cap 0 in
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

(* Index of the lane whose head comes before the heap root and every
   other lane head, or [-1] when the heap root comes first or nothing is
   pending. The local float ref stays unboxed. Callers skip it on a heap
   without lanes: the call alone cost a heap-only push+pop at depth 22
   about 10 ns of 70 on a 2-core x86-64 host. *)
let earliest_lane t =
  let lanes = t.lanes in
  let best = ref (-1) in
  let best_time = ref (if t.size > 0 then t.times.(0) else Float.infinity) in
  let best_seq = ref (if t.size > 0 then t.seqs.(0) else max_int) in
  for k = 0 to Array.length lanes - 1 do
    let r = lanes.(k) in
    if r.len > 0 then begin
      let h = r.head in
      let time = r.ring_times.(h) and seq = r.ring_seqs.(h) in
      if before time seq !best_time !best_seq then begin
        best := k;
        best_time := time;
        best_seq := seq
      end
    end
  done;
  !best

let pop_lane t r =
  let h = r.head in
  t.popped_time.(0) <- r.ring_times.(h);
  t.popped_kind <- r.ring_kinds.(h);
  r.head <- (h + 1) land (Array.length r.ring_data - 1);
  r.len <- r.len - 1;
  t.in_lanes <- t.in_lanes - 1;
  r.ring_data.(h)

let pop_exn t =
  let k = if Array.length t.lanes = 0 then -1 else earliest_lane t in
  if k >= 0 then pop_lane t t.lanes.(k)
  else begin
    if t.size = 0 then invalid_arg "Event_heap.pop_exn: empty heap";
    let slot = t.slots.(0) in
    t.popped_time.(0) <- t.times.(0);
    t.popped_kind <- t.kinds.(slot);
    let x = t.data.(slot) in
    remove_at t 0;
    x
  end

let popped_kind t = t.popped_kind

let popped_time t = t.popped_time.(0)

let cancel t h =
  let slot = h land slot_mask in
  if h >= 0 && slot < Array.length t.positions then begin
    let i = t.positions.(slot) in
    if i < t.size && t.seqs.(i) land generation_mask = h lsr slot_bits then remove_at t i
  end

(* Lanes never shrink: a lane holds at most the entries in flight at
   once, which the caller bounds. *)
let new_lane t =
  let r =
    { ring_times = [||]; ring_seqs = [||]; ring_kinds = [||]; ring_data = [||];
      head = 0; len = 0 }
  in
  t.lanes <- Array.append t.lanes [| r |];
  Array.length t.lanes - 1

(* Double a full ring, unrolled so that its oldest entry lands at 0. *)
let grow_ring r =
  let cap = Array.length r.ring_data in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let times = Array.make new_cap 0. and seqs = Array.make new_cap 0 in
  let kinds = Array.make new_cap 0 and data = Array.make new_cap 0 in
  for k = 0 to r.len - 1 do
    let j = (r.head + k) land (cap - 1) in
    times.(k) <- r.ring_times.(j);
    seqs.(k) <- r.ring_seqs.(j);
    kinds.(k) <- r.ring_kinds.(j);
    data.(k) <- r.ring_data.(j)
  done;
  r.ring_times <- times;
  r.ring_seqs <- seqs;
  r.ring_kinds <- kinds;
  r.ring_data <- data;
  r.head <- 0

let push_lane t lane ~time ~kind x =
  if not (Float.is_finite time) then invalid_arg "Event_heap.push_lane: non-finite time";
  let r = t.lanes.(lane) in
  let mask = Array.length r.ring_data - 1 in
  if r.len > 0 && time < r.ring_times.((r.head + r.len - 1) land mask) then
    invalid_arg "Event_heap.push_lane: time below the lane's last entry";
  if r.len = Array.length r.ring_data then grow_ring r;
  let j = (r.head + r.len) land (Array.length r.ring_data - 1) in
  r.ring_times.(j) <- time;
  r.ring_seqs.(j) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  r.ring_kinds.(j) <- kind;
  r.ring_data.(j) <- x;
  r.len <- r.len + 1;
  t.in_lanes <- t.in_lanes + 1
