(* Degree bookkeeping and degenerate-case dispatch compare coefficients and
   discriminants with exact zero on purpose: a coefficient only vanishes
   structurally (never by rounding we want to hide), and treating an almost
   zero leading coefficient as zero would silently change the degree. The
   tests are spelled [Float.equal _ 0.] — monomorphic, so deterministic
   under the typed lint — rather than polymorphic [=]. *)

type t = float array
(* Coefficients lowest order first; invariant: non-empty, finite, trailing
   zeros trimmed (except the zero polynomial [|0.|]). *)

let trim a =
  let n = ref (Array.length a) in
  while !n > 1 && Float.equal a.(!n - 1) 0. do
    decr n
  done;
  Array.sub a 0 !n
[@@lint.allow
  "unbounded-retry"
    "[!n] strictly decreases from the coefficient count and the loop stops at \
     1, so it runs at most [Array.length a] times"]

let of_coeffs a =
  if Array.length a = 0 then invalid_arg "Polynomial.of_coeffs: empty coefficient array";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) then
        invalid_arg "Polynomial.of_coeffs: non-finite coefficient")
    a;
  trim a

let eval t x =
  let acc = ref 0. in
  for i = Array.length t - 1 downto 0 do
    acc := (!acc *. x) +. t.(i)
  done;
  !acc

let derivative t =
  if Array.length t = 1 then [| 0. |]
  else trim (Array.init (Array.length t - 1) (fun i -> Float.of_int (i + 1) *. t.(i + 1)))

let is_zero t = Array.length t = 1 && Float.equal t.(0) 0.

(* --- root solvers ------------------------------------------------------ *)

let polish t root =
  let dt = derivative t in
  let x = ref root in
  for _ = 1 to 3 do
    let d = eval dt !x in
    if not (Float.equal d 0.) then begin
      let next = !x -. (eval t !x /. d) in
      if Float.is_finite next && Float.abs (eval t next) <= Float.abs (eval t !x) then
        x := next
    end
  done;
  !x

let roots_linear c0 c1 = [| -.c0 /. c1 |]

(* Numerically stable quadratic formula. *)
let roots_quadratic c0 c1 c2 =
  let disc = (c1 *. c1) -. (4. *. c2 *. c0) in
  if disc < 0. then [||]
  else if Float.equal disc 0. then [| -.c1 /. (2. *. c2) |]
  else begin
    let sq = sqrt disc in
    let q = -0.5 *. (c1 +. Float.copy_sign sq c1) in
    if Float.equal q 0. then [| 0.; -.c1 /. c2 |]
    else [| q /. c2; c0 /. q |]
  end

let cbrt x = Float.copy_sign (Float.abs x ** (1. /. 3.)) x

(* Real roots of the depressed cubic t³ + p·t + q. *)
let depressed_cubic_roots p q =
  if Float.equal p 0. then [| cbrt (-.q) |]
  else begin
    let disc = ((q *. q) /. 4.) +. ((p *. p *. p) /. 27.) in
    if disc > 0. then begin
      let s = sqrt disc in
      [| cbrt ((-.q /. 2.) +. s) +. cbrt ((-.q /. 2.) -. s) |]
    end
    else begin
      (* Three real roots: trigonometric method (requires p < 0). *)
      let m = 2. *. sqrt (-.p /. 3.) in
      let arg = 3. *. q /. (p *. m) in
      let arg = Float.max (-1.) (Float.min 1. arg) in
      let theta = acos arg /. 3. in
      let pi = 4. *. atan 1. in
      Array.init 3 (fun k -> m *. cos (theta -. (2. *. pi *. Float.of_int k /. 3.)))
    end
  end

let roots_cubic c0 c1 c2 c3 =
  let b = c2 /. c3 and c = c1 /. c3 and d = c0 /. c3 in
  let p = c -. (b *. b /. 3.) in
  let q = ((2. *. b *. b *. b) -. (9. *. b *. c) +. (27. *. d)) /. 27. in
  Array.map (fun t -> t -. (b /. 3.)) (depressed_cubic_roots p q)

(* Ferrari's method on the depressed quartic y⁴ + p·y² + q·y + r. *)
let depressed_quartic_roots p q r =
  if Float.abs q < 1e-12 *. Float.max 1. (Float.max (Float.abs p) (Float.abs r)) then begin
    (* Biquadratic: z² + p·z + r = 0 with z = y². *)
    let zs = roots_quadratic r p 1. in
    let out = ref [] in
    Array.iter
      (fun z ->
        if z > 0. then begin
          let s = sqrt z in
          out := s :: -.s :: !out
        end
        else if Float.equal z 0. then out := 0. :: !out)
      zs;
    Array.of_list !out
  end
  else begin
    (* Resolvent cubic 8m³ + 8p·m² + (2p² − 8r)·m − q² = 0 has a positive
       real root when q ≠ 0. *)
    let ms = roots_cubic (-.(q *. q)) ((2. *. p *. p) -. (8. *. r)) (8. *. p) 8. in
    let m = Array.fold_left (fun acc v -> if v > acc then v else acc) neg_infinity ms in
    if m <= 0. then [||]
    else begin
      let s = sqrt (2. *. m) in
      (* (y² + p/2 + m)² = 2m (y − q/(4m))² splits into
         y² − s·y + (p/2 + m + q/(2s)) and y² + s·y + (p/2 + m − q/(2s)). *)
      let t_minus = (p /. 2.) +. m +. (q /. (2. *. s)) in
      let t_plus = (p /. 2.) +. m -. (q /. (2. *. s)) in
      Array.append (roots_quadratic t_minus (-.s) 1.) (roots_quadratic t_plus s 1.)
    end
  end

let roots_quartic c0 c1 c2 c3 c4 =
  let b = c3 /. c4 and c = c2 /. c4 and d = c1 /. c4 and e = c0 /. c4 in
  let shift = b /. 4. in
  let p = c -. (3. *. b *. b /. 8.) in
  let q = d -. (b *. c /. 2.) +. (b *. b *. b /. 8.) in
  let r =
    e -. (b *. d /. 4.) +. (b *. b *. c /. 16.) -. (3. *. b *. b *. b *. b /. 256.)
  in
  Array.map (fun y -> y -. shift) (depressed_quartic_roots p q r)

(* Fallback for degree >= 5: between consecutive critical points the
   polynomial is monotone, so each sign change brackets exactly one root. *)
let rec roots_by_subdivision t =
  let deriv_roots = real_roots_unpolished (derivative t) in
  let cauchy_bound =
    let lead = t.(Array.length t - 1) in
    1.
    +. Array.fold_left (fun acc c -> Float.max acc (Float.abs (c /. lead))) 0. t
  in
  let points =
    Array.to_list deriv_roots
    |> List.filter (fun x -> Float.abs x < cauchy_bound)
    |> List.sort Float.compare
  in
  let points = ((-.cauchy_bound) :: points) @ [ cauchy_bound ] in
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
      let fa = eval t a and fb = eval t b in
      let acc =
        if Float.equal fa 0. then a :: acc
        else if fa *. fb < 0. then Roots.brent ~f:(eval t) a b :: acc
        else acc
      in
      scan acc rest
    | [ last ] -> if Float.equal (eval t last) 0. then last :: acc else acc
    | [] -> acc
  in
  Array.of_list (scan [] points)

and real_roots_unpolished t =
  if is_zero t then invalid_arg "Polynomial.real_roots: zero polynomial";
  match Array.length t - 1 with
  | 0 -> [||]
  | 1 -> roots_linear t.(0) t.(1)
  | 2 -> roots_quadratic t.(0) t.(1) t.(2)
  | 3 -> roots_cubic t.(0) t.(1) t.(2) t.(3)
  | 4 -> roots_quartic t.(0) t.(1) t.(2) t.(3) t.(4)
  | _ -> roots_by_subdivision t

let real_roots t =
  let raw = real_roots_unpolished t in
  let polished = Array.map (polish t) raw in
  Array.sort Float.compare polished;
  (* Collapse numerically identical roots. *)
  let out = ref [] in
  Array.iter
    (fun r ->
      match !out with
      | prev :: _ when Float.abs (r -. prev) <= 1e-8 *. Float.max 1. (Float.abs r) -> ()
      | _ -> out := r :: !out)
    polished;
  Array.of_list (List.rev !out)
