(* Host-time spans recorded around calls into the library's layers.

   Spans are kept in memory and written as Chrome trace JSON when the run
   ends. Each span has a name, start, end, the span that encloses it, and
   the id of the benchmark op it belongs to. Recording is off until
   [start]; while off, [span] only calls its function. *)

open Perfbench_lib

(* Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, or -1 *)
  op : int;  (** benchmark op the span belongs to, or -1 *)
  tid : int;  (** domain that ran it *)
}

type t = {
  mutable on : bool;
  mutable spans : span list;  (** newest first *)
  mutable open_ : int list;  (** ids of the spans being timed, innermost first *)
  mutable next : int;
  mutable op : int;
}

let create () = { on = false; spans = []; open_ = []; next = 0; op = -1 }
let start t = t.on <- true
let enabled t = t.on
let set_op t op = t.op <- op
let current t = match t.open_ with id :: _ -> id | [] -> -1

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(* A span timed elsewhere, e.g. on a worker domain, as a child of the
   current span; recorded from the main domain once the worker's result
   is back. *)
let record t ~name ~start ~stop ~tid =
  if t.on then
    t.spans <-
      { id = fresh_id t; name; start; stop; parent = current t; op = t.op; tid } :: t.spans

let span t name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t in
    let parent = current t in
    t.open_ <- id :: t.open_;
    let start = now () in
    let close () =
      let stop = now () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; name; start; stop; parent; op = t.op; tid = 0 } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.spans

(* Durations in seconds of every recorded span with this name, oldest
   first. *)
let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (s.stop -. s.start) else None) (spans t)

let to_json ~meta t =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity t.spans in
  let us x = Json.Number (Float.round ((x -. origin) *. 1e7) /. 10.) in
  let event s =
    Json.Object
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", us s.start);
        ("dur", Json.Number (Float.round ((s.stop -. s.start) *. 1e7) /. 10.));
        ("pid", Json.Number 1.);
        ("tid", Json.Number (Float.of_int s.tid));
        ( "args",
          Json.Object
            [
              ("id", Json.Number (Float.of_int s.id));
              ("parent", Json.Number (Float.of_int s.parent));
              ("op", Json.Number (Float.of_int s.op));
            ] );
      ]
  in
  Json.Object
    [
      ("traceEvents", Json.List (List.map event (spans t)));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Object (("clock", Json.String "host-monotonic") :: meta));
    ]
