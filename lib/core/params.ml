type t = {
  p : int;
  st : float [@lopc.cost] [@lopc.unit "cycles"];
  so : float [@lopc.cost] [@lopc.unit "cycles"];
  c2 : float [@lopc.cost];
}

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.p < 1 then err "need at least one processor, got P=%d" t.p
  else if t.st < 0. || not (Float.is_finite t.st) then err "St must be finite and >= 0, got %g" t.st
  else if t.so <= 0. || not (Float.is_finite t.so) then err "So must be finite and > 0, got %g" t.so
  else if t.c2 < 0. || not (Float.is_finite t.c2) then err "C2 must be finite and >= 0, got %g" t.c2
  else Ok t

let create ?(c2 = 1.) ~p ~st ~so () =
  match
    validate
      ({ p; st; so; c2 }
      [@lint.allow
        "negative-cost"
          "raw constructor arguments: [validate] rejects any out-of-range field \
           before the record escapes"])
  with
  | Ok t -> t
  | Error reason -> invalid_arg ("Params: " ^ reason)

type algorithm = { n : int; w : float [@lopc.cost] [@lopc.unit "cycles"] }

let algorithm ~n ~w =
  if n < 0 then invalid_arg "Params.algorithm: negative request count";
  if w < 0. || not (Float.is_finite w) then invalid_arg "Params.algorithm: invalid work";
  { n; w }

let pp ppf t = Format.fprintf ppf "P=%d St=%g So=%g C2=%g" t.p t.st t.so t.c2

let logp_correspondence =
  [
    ("St", "L", "Average wire time (latency) in the interconnect");
    ("So", "o", "Average cost of message dispatch");
    ("-", "g", "Peak processor to network bandwidth (assumed balanced)");
    ("P", "P", "Number of processors");
    ("C2", "-", "Variability in message processing time (optional)");
  ]
