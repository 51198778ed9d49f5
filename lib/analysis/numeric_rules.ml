(* Findings adapter for the interval stage: Absint emits raw violations
   tagged with a rule id; this module owns the rule severity and hint
   (the catalogue text lives in Explain) and produces Finding.t values the typed driver can
   merge, suppress and sort like any other rule's. *)

let probability_range = "probability-range"
let negative_cost = "negative-cost"
let division_by_vanishing = "division-by-vanishing"
let unit_mismatch = "unit-mismatch"

let catalogue =
  [
    (probability_range, Finding.Error);
    (negative_cost, Finding.Error);
    (division_by_vanishing, Finding.Warning);
    (unit_mismatch, Finding.Error);
  ]

let hint_of = function
  | rule when String.equal rule probability_range ->
    "clamp or validate the value before it reaches the annotated slot (e.g. \
     guard with 0. <= q && q <= 1., or Float.min 1. (Float.max 0. q)); if the \
     range is enforced elsewhere, suppress with [@lint.allow \
     \"probability-range\" \"why\"]"
  | rule when String.equal rule negative_cost ->
    "guard the expression to be >= 0 (validate at the boundary, or Float.max \
     0.); if non-negativity is enforced elsewhere, suppress with [@lint.allow \
     \"negative-cost\" \"why\"]"
  | rule when String.equal rule division_by_vanishing ->
    "guard the division so the denominator interval excludes 0 on this path \
     (e.g. if u >= 1. then ... else x /. (1. -. u), or divide by Float.max \
     eps (1. -. u)); if saturation is impossible by construction, suppress \
     with [@lint.allow \"division-by-vanishing\" \"why\"]"
  | _ ->
    "convert one side explicitly before mixing units (cycles vs seconds vs \
     dimensionless rates), or fix the [@lopc.unit] annotation"

let severity_of rule =
  match List.find_opt (fun (id, _) -> String.equal id rule) catalogue with
  | Some (_, sev) -> sev
  | None -> Finding.Warning

let check_absint absint =
  List.map
    (fun (v : Absint.violation) ->
      Finding.v ~rule:v.v_rule ~severity:(severity_of v.v_rule) ~loc:v.v_loc
        ~message:v.v_message ~hint:(hint_of v.v_rule))
    (Absint.check absint)

let check graph = check_absint (Absint.analyze graph)
