(** The numeric-safety rules backed by the {!Absint} interval stage:
    [probability-range], [negative-cost], [division-by-vanishing] and
    [unit-mismatch]. *)

(** (id, severity) for every rule this module can emit, in catalogue
    order. *)
val catalogue : (string * Finding.severity) list

(** The severity of a rule id from {!catalogue} (warning for any other
    id). *)
val severity_of : string -> Finding.severity

(** Run the interval analysis over a built call graph and translate its
    violations into findings (unsorted; callers sort and filter
    suppressions). *)
val check : Callgraph.t -> Finding.t list

(** As {!check} but over a pre-computed analysis. *)
val check_absint : Absint.t -> Finding.t list
