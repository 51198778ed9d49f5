(* The four state words live in a 32-byte [Bytes.t] at offsets 0, 8, 16
   and 24 (s0..s3), read and written with [Bytes.get_int64_ne] /
   [set_int64_ne]. The native compiler keeps those reads and writes
   unboxed, so a step allocates nothing but its boxed [int64] result,
   and [next] is inlined into [next_float], so a float draw allocates
   only its float; four [mutable int64] record fields boxed every store. *)
type t = Bytes.t

let s0 t = Bytes.get_int64_ne t 0
let s1 t = Bytes.get_int64_ne t 8
let s2 t = Bytes.get_int64_ne t 16
let s3 t = Bytes.get_int64_ne t 24

let set t x0 x1 x2 x3 =
  Bytes.set_int64_ne t 0 x0;
  Bytes.set_int64_ne t 8 x1;
  Bytes.set_int64_ne t 16 x2;
  Bytes.set_int64_ne t 24 x3

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The SplitMix64 outputs seed s3 first and s0 last. That is the order in
   which the record literal of the earlier layout happened to evaluate its
   fields (right to left), and every committed stream depends on it. *)
let create seed =
  let sm = Splitmix64.create seed in
  let x3 = Splitmix64.next sm in
  let x2 = Splitmix64.next sm in
  let x1 = Splitmix64.next sm in
  let x0 = Splitmix64.next sm in
  let t = Bytes.create 32 in
  set t x0 x1 x2 x3;
  t

let copy = Bytes.copy

let next t =
  let x0 = s0 t and x1 = s1 t and x2 = s2 t and x3 = s3 t in
  let result = Int64.add (rotl (Int64.add x0 x3) 23) x0 in
  let tmp = Int64.shift_left x1 17 in
  let x2 = Int64.logxor x2 x0 in
  let x3 = Int64.logxor x3 x1 in
  let x1 = Int64.logxor x1 x2 in
  let x0 = Int64.logxor x0 x3 in
  set t x0 x1 (Int64.logxor x2 tmp) (rotl x3 45);
  result
[@@inline]

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

(* Jump polynomial coefficients from the reference implementation. *)
let jump_constants = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

(* The 256 steps run on local variables, which the native compiler keeps
   unboxed. The step is [next]'s, so the jumped state is bit-identical. *)
let jump t =
  let x0 = ref (s0 t) and x1 = ref (s1 t) and x2 = ref (s2 t) and x3 = ref (s3 t) in
  let j0 = ref 0L and j1 = ref 0L and j2 = ref 0L and j3 = ref 0L in
  for w = 0 to Array.length jump_constants - 1 do
    let c = jump_constants.(w) in
    for b = 0 to 63 do
      if Int64.logand c (Int64.shift_left 1L b) <> 0L then begin
        j0 := Int64.logxor !j0 !x0;
        j1 := Int64.logxor !j1 !x1;
        j2 := Int64.logxor !j2 !x2;
        j3 := Int64.logxor !j3 !x3
      end;
      let tmp = Int64.shift_left !x1 17 in
      x2 := Int64.logxor !x2 !x0;
      x3 := Int64.logxor !x3 !x1;
      x1 := Int64.logxor !x1 !x2;
      x0 := Int64.logxor !x0 !x3;
      x2 := Int64.logxor !x2 tmp;
      x3 := rotl !x3 45
    done
  done;
  set t !j0 !j1 !j2 !j3
