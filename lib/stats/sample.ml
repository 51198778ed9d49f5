type t = { data : float array }

let of_array a =
  if Array.length a = 0 then invalid_arg "Sample.of_array: empty sample";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then invalid_arg "Sample.of_array: non-finite value")
    a;
  let data = Array.copy a in
  (* Monomorphic sort: IEEE total order on finite values (of_array rejects
     non-finite input above), identical on every platform. *)
  Array.sort Float.compare data;
  { data }

let of_list l = of_array (Array.of_list l)
[@@lint.allow
  "test-only-export"
    "perfbench/stats.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]

let quantile t q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Sample.quantile: q outside [0,1]";
  let n = Array.length t.data in
  if n = 1 then t.data.(0)
  else begin
    let h = q *. Float.of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let frac = h -. Float.of_int i in
    if i >= n - 1 then t.data.(n - 1)
    else t.data.(i) +. (frac *. (t.data.(i + 1) -. t.data.(i)))
  end

let median t = quantile t 0.5
[@@lint.allow
  "test-only-export"
    "perfbench/stats.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]

let min t = t.data.(0)
[@@lint.allow
  "test-only-export"
    "perfbench/stats.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]

let max t = t.data.(Array.length t.data - 1)
[@@lint.allow
  "test-only-export"
    "perfbench/stats.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]

let iqr t = quantile t 0.75 -. quantile t 0.25
[@@lint.allow
  "test-only-export"
    "perfbench/stats.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]
