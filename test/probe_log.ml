(* An accumulating Solver_probe for the tests: [log ()] returns a
   collector and the probe that feeds it. Events beyond [limit] are
   counted but discarded. *)

module Solver_probe = Lopc_numerics.Solver_probe

type t = {
  limit : int;
  mutable rev : Solver_probe.event list;  (* newest first *)
  mutable kept : int;
  mutable offered : int;
}

let log ?(limit = 100_000) () =
  let l = { limit; rev = []; kept = 0; offered = 0 } in
  let probe ev =
    l.offered <- l.offered + 1;
    if l.kept < l.limit then begin
      l.rev <- ev :: l.rev;
      l.kept <- l.kept + 1
    end
  in
  (l, probe)

let events l = List.rev l.rev

(* Events offered, including any discarded beyond the limit. *)
let count l = l.offered

let last l = match l.rev with [] -> None | ev :: _ -> Some ev

(* The residual sequence is finite and strictly decreasing from index
   [from] on; true when fewer than two events qualify. *)
let strictly_decreasing ?(from = 0) l =
  let r = Array.of_list (List.map (fun (ev : Solver_probe.event) -> ev.residual) (events l)) in
  let from = max 0 from in
  let ok = ref true in
  for i = from to Array.length r - 1 do
    if not (Float.is_finite r.(i)) then ok := false;
    if i > from && r.(i) >= r.(i - 1) then ok := false
  done;
  !ok

(* The [hottest] field of the last event that carried one. *)
let hottest l = List.find_map (fun (ev : Solver_probe.event) -> ev.hottest) l.rev
