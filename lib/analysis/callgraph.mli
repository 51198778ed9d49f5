(** Project-wide call graph over typed trees.

    Nodes are top-level value bindings (including bindings in nested
    modules), keyed by a normalised dotted name such as
    ["Amva.solve_status"]. Normalisation erases wrapper modules
    ([Lopc_mva.Station.f]), mangled unit names ([Lopc_mva__Station.f]) and
    local module aliases ([module S = Lopc_mva.Station]), so the same global
    always resolves to the same key however it was spelled. Each node
    records its global references (with the instantiated type at the use
    site and the exception handlers enclosing it) and its raise sites; the
    typed rules are graph walks over this structure. *)

module SMap : Map.S with type key = string
module SSet : Set.S with type elt = string
module IMap : Map.S with type key = Ident.t

type ref_site = {
  target : string;  (** normalised dotted key of the referenced value *)
  ref_loc : Location.t;
  typ : Types.type_expr;  (** instantiated type at the reference *)
  caught : string list;
      (** exception constructor names handled around the site; ["*"] = all *)
}

type raise_site = {
  exn : string;  (** constructor base name; ["*"] when raising a computed exn *)
  written : string;  (** as written in the source, for messages *)
  raise_loc : Location.t;
  raise_caught : string list;
}

type def = {
  key : string;
  def_name : string;
  source : string;
  unit_base : string;
  def_loc : Location.t;
  refs : ref_site list;  (** in source order *)
  raises : raise_site list;
  body : Typedtree.expression option;
}

type t = {
  defs : def list;  (** deterministic unit-then-source order *)
  by_key : def SMap.t;
  types_by_key : Types.type_declaration SMap.t;
  wrappers : SSet.t;
  idents : string IMap.t;  (** toplevel binding ident → its key, all units *)
}

val flatten_path : Path.t -> string list

(** Normalise the segments of a reference path: strip [Stdlib], demangle
    [A__B] heads, drop wrapper-module heads, apply local module aliases. *)
val normalize :
  wrappers:SSet.t -> aliases:string list SMap.t -> string list -> string list

val key_of : string list -> string

val build : Cmt_loader.unit_info list -> t

val find : t -> string -> def option

(** Resolve a binding ident to the toplevel key it introduces, when the
    ident is one a [scan_unit] pass recorded (same-unit toplevel bindings,
    including bindings in nested modules and functor bodies). *)
val resolve_ident : t -> Ident.t -> string option

(** Normalised key of a reference path outside any local-alias context —
    the cross-unit spelling rules only (wrapper modules, [Stdlib],
    mangled unit names). *)
val normalize_path : t -> Path.t -> string

(** Resolve a type path seen at a use site to its project declaration.
    [owner] is the dotted module context of the site, so bare type names
    resolve within their own module first. Returns the resolved key so
    recursive expansion can update its owner. *)
val find_type :
  t -> owner:string -> string list -> (string * Types.type_declaration) option

(** {1 Graph walks}

    The typed rules are transfer functions over these three walks. Each
    walk fixes its visiting order ([defs] order, then [refs] order), so
    rule output is deterministic. *)

(** [dir_prefix dir path]: [path] lies strictly under directory [dir]. *)
val dir_prefix : string -> string -> bool

(** First dotted segment of a key (["Random.int"] → ["Random"]). *)
val path_head : string -> string

(** The def is the first binding of its key — the one {!find} returns.
    Later bindings of the same key are shadowed toplevels. *)
val is_first_binding : t -> def -> bool

(** [reach t ~entry visit] runs a breadth-first search from the keys of the
    defs satisfying [entry] (sorted, de-duplicated), following the refs
    that resolve to a def, in ref order. [visit d chain] runs once per
    reached def, with [chain] the first-discovered key path from an entry
    to [d] (entry first); the results are concatenated in visiting
    order. *)
val reach : t -> entry:(def -> bool) -> (def -> string list -> 'a list) -> 'a list

(** Round-robin fixpoint over [defs], in order, until a whole round
    changes nothing or [max_rounds] rounds have run (default: no cap).
    Values start at [init]; a key missing from the current map reads as
    [bot]. [step values d cur] sees the current map and the current
    value of [d.key], and returns the new value, or [None] to leave it
    untouched. Every binding of a shadowed key is stepped against the one
    shared value. *)
val fixpoint :
  ?max_rounds:int ->
  t ->
  init:'a SMap.t ->
  bot:'a ->
  equal:('a -> 'a -> bool) ->
  step:('a SMap.t -> def -> 'a -> 'a option) ->
  'a SMap.t

(** [witness t key ~direct ~carries] finds a chain from [key] to a def
    with a direct fact: at each def, [direct] is tried first; otherwise
    the search descends depth-first, in ref order, into callees that
    resolve to a def, are not yet on the path, and satisfy [carries]. The
    chain starts with [key]. [None] when no such descent exists. *)
val witness :
  t ->
  string ->
  direct:(def -> 'w option) ->
  carries:(ref_site -> bool) ->
  (string list * 'w) option
