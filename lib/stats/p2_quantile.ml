type t = {
  q : float;
  heights : float array;      (* marker heights, 5 entries once primed *)
  positions : float array;    (* actual marker positions (1-based) *)
  desired : float array;      (* desired marker positions *)
  increments : float array;   (* desired position increments per sample *)
  mutable n : int;
}

let create ~q =
  if not (q > 0. && q < 1.) then invalid_arg "P2_quantile.create: q outside (0,1)";
  {
    q;
    heights = Array.make 5 0.;
    positions = [| 1.; 2.; 3.; 4.; 5. |];
    desired = [| 1.; 1. +. (2. *. q); 1. +. (4. *. q); 3. +. (2. *. q); 5. |];
    increments = [| 0.; q /. 2.; q; (1. +. q) /. 2.; 1. |];
    n = 0;
  }

(* Piecewise-parabolic (P²) height adjustment for marker i moved by d. *)
let parabolic t i d =
  let h = t.heights and p = t.positions in
  h.(i)
  +. (d
      /. (p.(i + 1) -. p.(i - 1))
      *. (((p.(i) -. p.(i - 1) +. d) *. (h.(i + 1) -. h.(i)) /. (p.(i + 1) -. p.(i)))
         +. ((p.(i + 1) -. p.(i) -. d) *. (h.(i) -. h.(i - 1)) /. (p.(i) -. p.(i - 1)))))
[@@lint.allow
  "division-by-vanishing"
    "[add] only adjusts marker i when both neighbour gaps exceed 1 (the P^2 \
     precondition), so every position difference here is >= 1"]

let linear t i d =
  let h = t.heights and p = t.positions in
  let j = i + int_of_float d in
  h.(i) +. (d *. (h.(j) -. h.(i)) /. (p.(j) -. p.(i)))
[@@lint.allow
  "division-by-vanishing"
    "positions are strictly increasing integers stored as floats, so adjacent \
     marker positions differ by at least 1"]

let add t x =
  if not (Float.is_finite x) then invalid_arg "P2_quantile.add: non-finite observation";
  if t.n < 5 then begin
    t.heights.(t.n) <- x;
    t.n <- t.n + 1;
    if t.n = 5 then Array.sort Float.compare t.heights
  end
  else begin
    t.n <- t.n + 1;
    let h = t.heights and p = t.positions in
    (* Find the cell containing x and bump endpoint markers. *)
    let k =
      if x < h.(0) then begin
        h.(0) <- x;
        0
      end
      else if x >= h.(4) then begin
        h.(4) <- x;
        3
      end
      else begin
        let rec locate i = if x < h.(i + 1) then i else locate (i + 1) in
        locate 0
      end
    in
    for i = k + 1 to 4 do
      p.(i) <- p.(i) +. 1.
    done;
    for i = 0 to 4 do
      t.desired.(i) <- t.desired.(i) +. t.increments.(i)
    done;
    (* Adjust the three interior markers if they drifted off target. *)
    for i = 1 to 3 do
      let d = t.desired.(i) -. p.(i) in
      if
        (d >= 1. && p.(i + 1) -. p.(i) > 1.)
        || (d <= -1. && p.(i - 1) -. p.(i) < -1.)
      then begin
        let d = Float.copy_sign 1. d in
        let candidate = parabolic t i d in
        let new_height =
          if h.(i - 1) < candidate && candidate < h.(i + 1) then candidate
          else linear t i d
        in
        h.(i) <- new_height;
        p.(i) <- p.(i) +. d
      end
    done
  end

let estimate t =
  if t.n = 0 then Float.nan
  else if t.n < 5 then begin
    (* Exact small-sample quantile (nearest-rank interpolation). *)
    let sample = Array.sub t.heights 0 t.n in
    Array.sort Float.compare sample;
    let h = t.q *. Float.of_int (t.n - 1) in
    let i = int_of_float (Float.floor h) in
    if i >= t.n - 1 then sample.(t.n - 1)
    else sample.(i) +. ((h -. Float.of_int i) *. (sample.(i + 1) -. sample.(i)))
  end
  else t.heights.(2)
