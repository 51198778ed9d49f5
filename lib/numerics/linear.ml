exception Singular

let solve a b =
  let n = Array.length b in
  if Array.length a <> n then invalid_arg "Linear.solve: dimension mismatch";
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Linear.solve: ragged matrix")
    a;
  (* Work on an augmented copy. *)
  let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  for col = 0 to n - 1 do
    (* Partial pivoting. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then pivot := row
    done;
    if Float.abs m.(!pivot).(col) < 1e-300 then raise Singular;
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp
    end;
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if not (Float.equal factor 0.) then
        for k = col to n do
          m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
        done
    done
  done;
  let x = Array.make n 0. in
  for row = n - 1 downto 0 do
    let acc = ref m.(row).(n) in
    for k = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(k) *. x.(k))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x
