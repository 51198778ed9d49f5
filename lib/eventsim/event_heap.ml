(* Struct-of-arrays binary min-heap: timestamps and sequence numbers live
   in flat unboxed arrays ([float array] / [int array]), payloads in a
   parallel ['a option array]. Sift compares never chase a pointer and
   neither [push] nor [pop_payload] allocates beyond the payload's own
   [Some] cell (which is handed back verbatim by [pop_payload]).

   Slots at or above [size] hold [None]: a popped entry must not linger in
   the backing array, because event payloads are closures over node state
   and long simulations would otherwise retain one dead closure per pop
   (the vacated slot aliases live entries only transitively, so the leak
   shows up as popped-but-reachable payloads, not as a monotonic
   counter). *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable data : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

(* Capacity kept through a drain: ping-pong workloads pop the heap to
   empty once per event, and re-allocating a fresh backing array per pop
   costs more than the handful of nulled slots retained here. Above this
   the arrays are dropped so a burst does not pin its high-water mark. *)
let retained_capacity = 64

let create () = { times = [||]; seqs = [||]; data = [||]; size = 0; next_seq = 0 }

let size t = t.size

let is_empty t = t.size = 0

(* Entry ordering: earlier time first; insertion order breaks ties. Spelled
   as an explicit monomorphic comparison — Float time then int seq — so
   the total order (including NaN placement, which push rejects anyway)
   is defined here and not by the polymorphic compare runtime. Sequence
   numbers are unique, so the order is total and strict. *)
let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  if ti < tj then true
  else if ti > tj then false
  else t.seqs.(i) < t.seqs.(j)

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let data = Array.make new_cap None in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.data <- data

let push t ~time x =
  if not (Float.is_finite time) then invalid_arg "Event_heap.push: non-finite time";
  if t.size = Array.length t.data then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.times.(!i) <- time;
  t.seqs.(!i) <- t.next_seq;
  t.data.(!i) <- Some x;
  t.next_seq <- t.next_seq + 1;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t !i parent then begin
      swap t !i parent;
      i := parent
    end
    else continue := false
  done
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
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size = 0 then begin
      (* Heap drained: null the vacated root but keep a small backing
         array so drain-per-event workloads do not re-allocate on every
         push; anything larger is dropped wholesale. *)
      if Array.length t.data > retained_capacity then begin
        t.times <- [||];
        t.seqs <- [||];
        t.data <- [||]
      end
      else t.data.(0) <- None
    end
    else begin
      let last = t.size in
      t.times.(0) <- t.times.(last);
      t.seqs.(0) <- t.seqs.(last);
      t.data.(0) <- t.data.(last);
      (* Null the vacated slot so the entry moved to the root is the only
         reference the array keeps. *)
      t.data.(last) <- None;
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t l !smallest then smallest := l;
        if r < t.size && before t r !smallest then smallest := r;
        if !smallest <> !i then begin
          swap t !i !smallest;
          i := !smallest
        end
        else continue := false
      done
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
