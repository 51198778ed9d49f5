(* The JSON the benchmark reads (BENCHMARK.json, result lines) and
   writes (result lines, Chrome traces). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' when !pos + 4 <= n -> (
          match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code when code < 0x80 ->
            Buffer.add_char buf (Char.chr code);
            pos := !pos + 4
          | Some _ | None -> fail "unsupported \\u escape")
        | _ -> fail "bad escape");
        go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Number x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Object [])
      else
        let rec members acc =
          skip_ws ();
          let key = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; members ((key, v) :: acc)
          | '}' -> incr pos; Object (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; List [])
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; elements (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
    | '"' -> String (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Shortest decimal that reads back as the same float; integers print
   without a fraction. Non-finite numbers have no JSON spelling. *)
let number_to_string x =
  if not (Float.is_finite x) then invalid_arg "Json.number_to_string: non-finite"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let short = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string short) x then short else Printf.sprintf "%.17g" x

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number x -> Buffer.add_string buf (number_to_string x)
  | String s -> Buffer.add_string buf (quote s)
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        to_buffer buf v)
      vs;
    Buffer.add_char buf ']'
  | Object fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (quote k);
        Buffer.add_string buf ": ";
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf
