type kind = Queueing | Delay

type t = {
  kind : kind;
  demand : float [@lopc.cost] [@lopc.unit "cycles"];
  scv : float [@lopc.cost];
  servers : int;
}

let validate t =
  if t.demand < 0. || not (Float.is_finite t.demand) then
    Error (Printf.sprintf "station demand must be finite and >= 0, got %g" t.demand)
  else if t.scv < 0. || not (Float.is_finite t.scv) then
    Error (Printf.sprintf "station scv must be finite and >= 0, got %g" t.scv)
  else if t.servers < 1 then
    Error (Printf.sprintf "station needs at least one server, got %d" t.servers)
  else Ok t

let check t =
  match validate t with Ok t -> t | Error reason -> invalid_arg ("Station: " ^ reason)

let queueing ?(scv = 1.) ?(servers = 1) ~demand () =
  check
    ({ kind = Queueing; demand; scv; servers }
    [@lint.allow
      "negative-cost"
        "raw constructor arguments: [check] rejects any out-of-range field before \
         the record escapes"])
