(** Per-function effect summaries over mutable locations.

    For every definition in the call graph, collects the direct mutable
    read/write events of its body (ref cells, mutable record fields,
    arrays, bytes, hash tables, buffers, queues, stacks, Atomic cells)
    and propagates them interprocedurally to a least fixpoint, so a
    definition's summary covers everything its callees touch. Location
    bases resolve to a toplevel key when possible; writes through
    parameters or captures that were not freshly allocated locally
    surface as the [foreign_writes]/[foreign_reads] flags. The race
    rules ({!Race_rules}) are built on these summaries. *)

module SMap = Callgraph.SMap
module SSet = Callgraph.SSet

type target =
  | Global of string  (** toplevel definition, by call-graph key *)
  | Based of Ident.t * string  (** rooted at a local ident; name for messages *)
  | Opaque  (** computed base the resolver cannot name *)

type op = Read | Write

type via = Plain | Atomic

type event = {
  target : target;
  op : op;
  via : via;
  rmw_safe : bool;
      (** an atomic read-modify-write primitive ([fetch_and_add],
          [compare_and_set], ...), as opposed to a plain [Atomic.set] *)
  site : Location.t;
}

type summary = {
  global_reads : SSet.t;
  global_writes : SSet.t;  (** plain (non-Atomic) writes *)
  atomic_globals : SSet.t;  (** globals accessed through [Atomic.*] *)
  foreign_writes : bool;
      (** plain write through a parameter, capture, or opaque base *)
  foreign_reads : bool;
}

val empty_summary : summary

type t = {
  graph : Callgraph.t;
  events : event list SMap.t;  (** direct events per def key, source order *)
  summaries : summary SMap.t;  (** transitive fixpoint *)
  locals : Ident.t list SMap.t;
      (** freshly-allocated let-bound idents per def *)
  mutable_globals : string SMap.t;
      (** key → kind, toplevel definitions of plain-mutable type *)
  atomic_cells : SSet.t;  (** toplevel [Atomic.t] cells *)
}

val analyze : Callgraph.t -> t

(** Normalised key of a callee/base path, resolving same-unit [Pident]
    references through the graph's ident table first. *)
val path_key : Callgraph.t -> Path.t -> string

(** Mutable-location events of a single expression node (the caller
    recurses). *)
val node_events : Callgraph.t -> Typedtree.expression -> event list

(** Direct events of one definition, in source order ([[]] if unknown). *)
val events : t -> string -> event list

(** Idents of the definition's let-bindings whose right-hand side is a
    fresh allocation — storage private to the definition. *)
val fresh_in : t -> string -> Ident.t list

val summary : t -> string -> summary option

(** [Some kind] when the key is a toplevel definition of plain-mutable
    type (a ref cell, hash table, mutable record, ...). *)
val mutable_global_kind : t -> string -> string option

val target_name : target -> string

(** Same location base: equal global keys, or the same stamped ident. *)
val same_target : target -> target -> bool

(** Print the transitive footprint of a definition in the stable format
    behind [lopc_lint --effects KEY]; [false] when the key is unknown. *)
val print_footprint : Format.formatter -> t -> string -> bool
