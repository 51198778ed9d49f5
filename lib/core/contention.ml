let beta (params : Params.t) = (params.c2 -. 1.) /. 2.

let reply_queue ~beta a b qq = b *. (1. +. qq +. (beta *. a))

(* Qy substituted into Qq: Qq·(1 − a − a·b) = a·(1 + b + β(a+b) + β·a·b) + e. *)
let queues ~beta ~extra a b =
  let denom = 1. -. a -. (a *. b) in
  let qq =
    ((a *. (1. +. b +. (beta *. (a +. b)) +. (beta *. a *. b)) /. denom) +. (extra /. denom)
    [@lint.allow
      "unguarded-division division-by-vanishing"
        "every caller keeps a and b below the saturation bound 1 - a - a*b > 0 (see \
         the .mli): the solvers' brackets start above it and General tests it first"])
  in
  (qq, reply_queue ~beta a b qq)

let thread_residence ~w ~so ~queue ~util =
  ((w +. (so *. queue)) /. (1. -. util)
  [@lint.allow
    "unguarded-division division-by-vanishing"
      "every caller keeps util < 1: the request utilization is below the queue \
       kernel's saturation bound, and Windowed tests its 2u before calling"])

let deterministic_residence ~service ~lambda =
  let u = lambda *. service in
  if u >= 0.999 then infinity else service *. (1. -. (u /. 2.)) /. (1. -. u)
