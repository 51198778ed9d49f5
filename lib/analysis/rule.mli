(** A lint rule: identity, default severity, fix hint and the check
    itself; catalogue documentation lives in {!Explain}. Rules are plain
    values; the registry is the list assembled in {!Driver.default_rules} —
    adding a rule means writing a [t] and consing it there. *)

type t = {
  id : string;  (** stable identifier used in reports and [@lint.allow] *)
  severity : Finding.severity;
  hint : string;  (** short fix hint attached to every finding *)
  check : path:string -> Parsetree.structure -> Finding.t list;
}

val v :
  id:string ->
  severity:Finding.severity ->
  hint:string ->
  check:(path:string -> Parsetree.structure -> Finding.t list) ->
  t

(** Build a finding carrying this rule's id, severity and hint. *)
val finding : t -> loc:Location.t -> string -> Finding.t

(** [in_library path] is true when [path] lies under a top-level [lib/]. *)
val in_library : string -> bool

(** [in_prng path] is true for files under [lib/prng/], the only place
    allowed to touch the raw RNG machinery. *)
val in_prng : string -> bool
