(** Loading typed trees for stage 2 of the linter.

    The typed analyses run over the compiler's [.cmt] files, which dune
    writes next to the object files (under [.*.objs/byte/]) whenever it
    compiles a library or executable. Each loaded unit carries its typed
    {!Typedtree.structure} plus the source path recorded at compile time, so
    findings point back into the original files. *)

type unit_info = {
  modname : string;  (** compilation unit name, e.g. ["Lopc_markov__Ctmc"] *)
  base : string;  (** user-facing module name, e.g. ["Ctmc"] *)
  source : string;  (** source path as recorded at compile time *)
  structure : Typedtree.structure;
}

(** ["Lopc_markov__Ctmc"] → ["Ctmc"]; identity when there is no [__]. *)
val base_of_modname : string -> string

(** ["Lopc_markov__Ctmc"] → [Some "Lopc_markov"], the dune-generated wrapper
    module; [None] for unmangled unit names. *)
val wrapper_of_modname : string -> string option

val of_implementation :
  modname:string -> source:string -> Typedtree.structure -> unit_info

(** Read one [.cmt]; [None] for interfaces, partial implementations, or
    unreadable/mismatched files. *)
val read_cmt : string -> unit_info option

(** Every [.cmt] file under the given roots (dot-directories included),
    sorted. *)
val cmt_files : string list -> string list

(** Two different sources compiled to the same unit name, e.g.
    [perfbench/test_stats.ml] and [test/test_stats.ml] both to
    [Dune__exe__Test_stats]. *)
exception Duplicate_unit of { modname : string; first : string; second : string }

(** Load all distinct units under the given roots, in sorted scan order.
    A unit name seen again from the same source, or from another
    dune-generated alias module ([*.ml-gen]), is skipped.
    @raise Duplicate_unit when it comes from any other source. *)
val load : string list -> unit_info list
