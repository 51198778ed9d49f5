(* Root finders legitimately compare residuals with exact zero: an IEEE-exact
   f(x) = 0. is a root by definition and ends the search early; near-misses
   are handled by the tolerance tests alongside. The tests are spelled with
   [Float.equal] — monomorphic, so deterministic under the typed lint —
   rather than polymorphic [=]. *)

let is_zero x = Float.equal x 0.

exception No_bracket

let same_strict_sign a b = (a > 0. && b > 0.) || (a < 0. && b < 0.)

(* Brent's method, following the classical Brent (1973) formulation. *)
let brent ?(tol = 1e-12) ?(max_iter = 200) ~f lo hi =
  let a = ref lo and b = ref hi in
  let fa = ref (f lo) and fb = ref (f hi) in
  if is_zero !fa then !a
  else if is_zero !fb then !b
  else if same_strict_sign !fa !fb then raise No_bracket
  else begin
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let answer = ref Float.nan in
    (try
       for _ = 1 to max_iter do
         if Float.abs !fc < Float.abs !fb then begin
           a := !b;
           b := !c;
           c := !a;
           fa := !fb;
           fb := !fc;
           fc := !fa
         end;
         let tol1 = (2. *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
         let xm = 0.5 *. (!c -. !b) in
         if Float.abs xm <= tol1 || is_zero !fb then begin
           answer := !b;
           raise Exit
         end;
         if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
           (* Attempt inverse quadratic interpolation / secant. *)
           let s = !fb /. !fa in
           let p, q =
             if Float.equal !a !c then
               let p = 2. *. xm *. s in
               (p, 1. -. s)
             else begin
               let q = !fa /. !fc and r = !fb /. !fc in
               let p = s *. ((2. *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.))) in
               (p, (q -. 1.) *. (r -. 1.) *. (s -. 1.))
             end
           in
           let p, q = if p > 0. then (p, -.q) else (-.p, q) in
           let min1 = (3. *. xm *. q) -. Float.abs (tol1 *. q) in
           let min2 = Float.abs (!e *. q) in
           if 2. *. p < Float.min min1 min2 then begin
             e := !d;
             d := p /. q
           end
           else begin
             d := xm;
             e := xm
           end
         end
         else begin
           d := xm;
           e := xm
         end;
         a := !b;
         fa := !fb;
         if Float.abs !d > tol1 then b := !b +. !d
         else b := !b +. Float.copy_sign tol1 xm;
         fb := f !b;
         if same_strict_sign !fb !fc then begin
           c := !a;
           fc := !fa;
           d := !b -. !a;
           e := !d
         end
       done;
       answer := !b
     with Exit -> ());
    !answer
  end

(* Geometric expansion (step doubling) until [f] changes sign between
   [lo] and [hi], for as long as [hi] stays finite. *)
let expand_bracket_upward ~f lo =
  let flo = f lo in
  if is_zero flo then (lo, lo)
  else begin
    let rec search step hi =
      if not (Float.is_finite hi) then raise No_bracket
      else begin
        let fhi = f hi in
        if is_zero fhi || not (same_strict_sign flo fhi) then (lo, hi)
        else search (step *. 2.) (hi +. (step *. 2.))
      end
    in
    let step = Float.max 1. (Float.abs lo *. 0.1) in
    search step (lo +. step)
  end

let brent_above ~f lo =
  let lo, hi = expand_bracket_upward ~f lo in
  brent ~f lo hi
