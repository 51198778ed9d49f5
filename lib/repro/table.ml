type cell = Float of float | Int of int | Text of string | Missing

type t = { caption : string; columns : string list; rows : cell list list }

let create ~caption ~columns rows =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Table: row %d has %d cells, expected %d" i (List.length row)
             width))
    rows;
  { caption; columns; rows }

let of_row_groups ~caption ~columns groups =
  (* Ordered merge used by the parallel reproduction engine: group [i] holds
     the rows produced by task [i], whatever worker computed it and in
     whatever order the workers finished; concatenating by index makes the
     merged table a pure function of the task array. *)
  create ~caption ~columns (List.concat (Array.to_list groups))

let cell_to_string = function
  | Float f -> Printf.sprintf "%.6g" f
  | Int i -> string_of_int i
  | Text s -> s
  | Missing -> "-"

let pp ppf t =
  let rendered = List.map (List.map cell_to_string) t.rows in
  let widths =
    List.mapi
      (fun i name ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length name) rendered)
      t.columns
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  Format.fprintf ppf "## %s@." t.caption;
  Format.fprintf ppf "%s@."
    (String.concat "  " (List.map2 pad t.columns widths));
  Format.fprintf ppf "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@." (String.concat "  " (List.map2 pad row widths)))
    rendered

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("# " ^ t.caption ^ "\n");
  Buffer.add_string buf (String.concat "," t.columns ^ "\n");
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map cell_to_string row) ^ "\n"))
    t.rows;
  Buffer.contents buf
