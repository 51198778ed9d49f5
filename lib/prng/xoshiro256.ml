type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let create seed =
  let sm = Splitmix64.create seed in
  {
    s0 = Splitmix64.next sm;
    s1 = Splitmix64.next sm;
    s2 = Splitmix64.next sm;
    s3 = Splitmix64.next sm;
  }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let next t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

(* Jump polynomial coefficients from the reference implementation. *)
let jump_constants = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

(* The 256 steps run on local variables, which the native compiler keeps
   unboxed; stepping the mutable record fields would box every int64
   store. The step is [next]'s, so the jumped state is bit-identical. *)
let jump t =
  let x0 = ref t.s0 and x1 = ref t.s1 and x2 = ref t.s2 and x3 = ref t.s3 in
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
  t.s0 <- !j0;
  t.s1 <- !j1;
  t.s2 <- !j2;
  t.s3 <- !j3
