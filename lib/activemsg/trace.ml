type collector = {
  limit : int;
  mutable collected : Machine.cycle_report list;  (* newest first *)
  mutable count : int;
}

let collector ?(limit = 64) () =
  if limit < 1 then invalid_arg "Trace.collector: limit < 1";
  let t = { limit; collected = []; count = 0 } in
  let observe (report : Machine.cycle_report) =
    if report.Machine.measured && t.count < t.limit then begin
      t.collected <- report :: t.collected;
      t.count <- t.count + 1
    end
  in
  (t, observe)

let reports t = List.rev t.collected

(* Render one cycle as contiguous segments: thread work (incl. preemption),
   wire (both directions pooled for display), request residence, reply
   residence. Segments are scaled by [per_char] time units per column. *)
let pp_one ~per_char ppf (r : Machine.cycle_report) =
  let rw = r.Machine.sent -. r.Machine.started in
  let total = r.Machine.completed -. r.Machine.started in
  let segments =
    [
      ('=', rw);
      ('-', r.Machine.wire);
      ('q', r.Machine.request_residence);
      ('y', r.Machine.reply_residence);
    ]
  in
  Format.fprintf ppf "node %3d @%10.1f |" r.Machine.origin r.Machine.started;
  List.iter
    (fun (ch, duration) ->
      let cols = max 1 (int_of_float (Float.round (duration /. per_char))) in
      if duration > 0. then Format.fprintf ppf "%s" (String.make cols ch))
    segments;
  Format.fprintf ppf "| R = %.1f@," total

let pp_timeline ?(width = 60) ppf reports =
  match reports with
  | [] -> Format.fprintf ppf "(no cycles collected)@."
  | _ ->
    let longest =
      List.fold_left
        (fun acc (r : Machine.cycle_report) ->
          Float.max acc (r.Machine.completed -. r.Machine.started))
        0. reports
    in
    let per_char = Float.max 1e-9 (longest /. Float.of_int width) in
    Format.fprintf ppf "@[<v>legend: = work  - wire  q request handler  y reply handler@,";
    Format.fprintf ppf "scale: one column = %.1f cycles@," per_char;
    List.iter (pp_one ~per_char ppf) reports;
    Format.fprintf ppf "@]"
