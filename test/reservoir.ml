(* Bounded, deterministic sample decimation.

   Keeps a bounded set of [(timestamp, value)] samples from an
   unbounded stream without randomness: samples are kept every
   [stride]-th arrival, and when the buffer fills, every other kept
   sample is discarded and the stride doubles. The survivors are a
   systematic (stride) sample spread over the whole stream, and the
   result depends only on the input sequence, never on an RNG, so
   traces stay replayable ([determinism-taint] safe). *)

type t = {
  capacity : int;
  mutable kept_rev : (float * float) list;  (* newest first *)
  mutable kept : int;
  mutable seen : int;
  mutable stride : int;
}

let create ?(capacity = 512) () =
  if capacity < 2 then invalid_arg "Reservoir.create: capacity must be at least 2";
  { capacity; kept_rev = []; kept = 0; seen = 0; stride = 1 }

(* Drop every other kept sample (keeping the oldest of each pair) and
   double the stride; survivors remain evenly spaced over the stream. *)
let compact t =
  let oldest_first = List.rev t.kept_rev in
  let survivors = ref [] in
  let n = ref 0 in
  List.iteri
    (fun i s ->
      if i mod 2 = 0 then begin
        survivors := s :: !survivors;
        incr n
      end)
    oldest_first;
  t.kept_rev <- !survivors;
  t.kept <- !n;
  t.stride <- t.stride * 2

let add t ~ts v =
  if t.seen mod t.stride = 0 then begin
    if t.kept >= t.capacity then compact t;
    t.kept_rev <- (ts, v) :: t.kept_rev;
    t.kept <- t.kept + 1
  end;
  t.seen <- t.seen + 1

let seen t = t.seen

let stride t = t.stride

let samples t = Array.of_list (List.rev t.kept_rev)
