(** Tabular output shared by the reproduction harness.

    Every experiment produces a {!t}: a caption, column headers and rows
    of cells. The printer renders aligned ASCII (as the harness shows on
    stdout) and CSV (for plotting the figures externally). *)

type cell =
  | Float of float      (** Rendered with [%.6g]. *)
  | Int of int
  | Text of string
  | Missing             (** Rendered as ["-"]. *)

type t = {
  caption : string;
  columns : string list;
  rows : cell list list;
}

val create : caption:string -> columns:string list -> cell list list -> t
(** @raise Invalid_argument if any row length differs from the header
    length. *)

val of_row_groups :
  caption:string -> columns:string list -> cell list list array -> t
(** [of_row_groups ~caption ~columns groups] merges per-task row groups in
    index order — the deterministic merge step of a parallel reproduction
    run ([groups.(i)] are the rows of task [i]).
    @raise Invalid_argument as {!create}. *)

val pp : Format.formatter -> t -> unit
(** Aligned plain-text rendering with the caption on top. *)

val to_csv : t -> string
(** Comma-separated rendering (caption as a [#] comment line). *)
