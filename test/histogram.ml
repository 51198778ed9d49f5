(* Fixed-width bucket histograms.

   Used to inspect simulated service-time and response-time distributions
   (e.g. to confirm the simulator's handler-time [C²] matches the
   distribution the model was given). Values below the range go to an
   underflow bucket, values at or above the top go to an overflow
   bucket. *)

type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable under : int;
  mutable over : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if lo >= hi then invalid_arg "Histogram.create: lo >= hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  {
    lo;
    hi;
    width = (hi -. lo) /. Float.of_int bins;
    counts = Array.make bins 0;
    under = 0;
    over = 0;
    total = 0;
  }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.under <- t.under + 1
  else if x >= t.hi then t.over <- t.over + 1
  else begin
    let i = Stdlib.min (Array.length t.counts - 1) (int_of_float ((x -. t.lo) /. t.width)) in
    t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.total

let bins t = Array.length t.counts

let bin_count t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bin_count: index";
  t.counts.(i)

let underflow t = t.under

let overflow t = t.over

let bin_bounds t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Histogram.bin_bounds: index";
  let lo = t.lo +. (Float.of_int i *. t.width) in
  (lo, lo +. t.width)

let fraction_below t x =
  if t.total = 0 then Float.nan
  else begin
    let below = ref (Float.of_int t.under) in
    if x >= t.hi then below := !below +. Float.of_int (t.total - t.under);
    if x > t.lo && x < t.hi then
      Array.iteri
        (fun i c ->
          let blo, bhi = bin_bounds t i in
          if bhi <= x then below := !below +. Float.of_int c
          else if blo < x then
            below := !below +. (Float.of_int c *. (x -. blo) /. t.width))
        t.counts;
    !below /. Float.of_int t.total
  end

let pp ?(width = 40) ppf t =
  let max_count = Array.fold_left Stdlib.max 1 t.counts in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i c ->
      let lo, hi = bin_bounds t i in
      let bar = String.make (c * width / max_count) '#' in
      Format.fprintf ppf "[%10.2f, %10.2f) %8d %s@," lo hi c bar)
    t.counts;
  if t.under > 0 then Format.fprintf ppf "underflow %d@," t.under;
  if t.over > 0 then Format.fprintf ppf "overflow %d@," t.over;
  Format.fprintf ppf "@]"
