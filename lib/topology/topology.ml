type direction = X_plus | X_minus | Y_plus | Y_minus

type t = { rows : int; cols : int; per_hop : float; link_time : float }

let default_rows nodes =
  let rec search d best = if d * d > nodes then best else search (d + 1) (if nodes mod d = 0 then d else best) in
  search 1 1

let create ?rows ~nodes ~per_hop ~link_time () =
  if nodes < 2 then invalid_arg "Topology.create: need at least two nodes";
  if per_hop < 0. || not (Float.is_finite per_hop) then
    invalid_arg "Topology.create: invalid per-hop time";
  if link_time < 0. || not (Float.is_finite link_time) then
    invalid_arg "Topology.create: invalid link time";
  let rows = match rows with Some r -> r | None -> default_rows nodes in
  if rows < 1 || nodes mod rows <> 0 then
    invalid_arg "Topology.create: rows must divide the node count";
  { rows; cols = nodes / rows; per_hop; link_time }

let coords t node =
  if node < 0 || node >= t.rows * t.cols then invalid_arg "Topology.coords: node out of range";
  (node / t.cols, node mod t.cols)

let node_of t ~row ~col =
  let wrap v m = ((v mod m) + m) mod m in
  (wrap row t.rows * t.cols) + wrap col t.cols

(* Minimal signed offset on a ring of size m; ties (even m, offset m/2)
   break toward the positive direction. *)
let ring_delta ~size a b =
  let raw = ((b - a) mod size + size) mod size in
  if raw * 2 <= size then raw else raw - size

let distance t ~src ~dst =
  let r1, c1 = coords t src and r2, c2 = coords t dst in
  abs (ring_delta ~size:t.cols c1 c2) + abs (ring_delta ~size:t.rows r1 r2)

let route t ~src ~dst =
  let r1, c1 = coords t src and r2, c2 = coords t dst in
  let dx = ring_delta ~size:t.cols c1 c2 in
  let dy = ring_delta ~size:t.rows r1 r2 in
  let links = ref [] in
  (* X dimension first. *)
  let col = ref c1 in
  for _ = 1 to abs dx do
    let here = node_of t ~row:r1 ~col:!col in
    if dx > 0 then begin
      links := (here, X_plus) :: !links;
      incr col
    end
    else begin
      links := (here, X_minus) :: !links;
      decr col
    end
  done;
  (* Then Y. *)
  let row = ref r1 in
  for _ = 1 to abs dy do
    let here = node_of t ~row:!row ~col:c2 in
    if dy > 0 then begin
      links := (here, Y_plus) :: !links;
      incr row
    end
    else begin
      links := (here, Y_minus) :: !links;
      decr row
    end
  done;
  List.rev !links

let mean_offsets t =
  let nodes = t.rows * t.cols in
  let dx_total = ref 0 and dy_total = ref 0 in
  for dst = 1 to nodes - 1 do
    let r1, c1 = coords t 0 and r2, c2 = coords t dst in
    dx_total := !dx_total + abs (ring_delta ~size:t.cols c1 c2);
    dy_total := !dy_total + abs (ring_delta ~size:t.rows r1 r2)
  done;
  let denom = Float.of_int (nodes - 1) in
  (Float.of_int !dx_total /. denom, Float.of_int !dy_total /. denom)

let mean_distance t =
  let nodes = t.rows * t.cols in
  let total = ref 0 in
  for dst = 1 to nodes - 1 do
    total := !total + distance t ~src:0 ~dst
  done;
  Float.of_int !total /. Float.of_int (nodes - 1)

let direction_index = function X_plus -> 0 | X_minus -> 1 | Y_plus -> 2 | Y_minus -> 3
