let check_common ~work ~handler_util:(handler_util [@lopc.prob]) =
  if not (Float.is_finite work) || work < 0. then
    invalid_arg "Priority: work must be finite and >= 0";
  if not (Float.is_finite handler_util) || handler_util < 0. then
    invalid_arg "Priority: handler_util must be finite and >= 0";
  if handler_util >= 1. then
    invalid_arg "Priority: handler utilization >= 1 leaves no capacity for the thread"

(* The LoPC model's own formula, so the model's Rw and this one cannot
   drift apart; only the argument checks are this module's. *)
let bkt ~work ~handler_service ~handler_queue ~handler_util:(handler_util [@lopc.prob]) =
  check_common ~work ~handler_util;
  if handler_service < 0. || handler_queue < 0. then
    invalid_arg "Priority.bkt: negative handler service or queue";
  Lopc.Contention.thread_residence ~w:work ~so:handler_service ~queue:handler_queue
    ~util:handler_util

let shadow_server ~work ~handler_util:(handler_util [@lopc.prob]) =
  check_common ~work ~handler_util;
  work /. (1. -. handler_util)
[@@lint.allow
  "unguarded-division division-by-vanishing"
    "dominated by check_common, which rejects handler_util >= 1 before any division \
     runs; the guard is interprocedural, out of the rule's sight"]
