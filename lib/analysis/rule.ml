type t = {
  id : string;
  severity : Finding.severity;
  hint : string;
  check : path:string -> Parsetree.structure -> Finding.t list;
}

let v ~id ~severity ~hint ~check = { id; severity; hint; check }

let finding rule ~loc message =
  Finding.v ~rule:rule.id ~severity:rule.severity ~loc ~message ~hint:rule.hint

(* Path predicates shared by path-sensitive rules. Paths are compared on
   their '/'-separated segments so "lib", "./lib/foo.ml" and
   "bench/../lib/x.ml" are classified by what was actually passed in. *)
let segments path = String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let in_library path = match segments path with "lib" :: _ -> true | _ -> false

let in_prng path =
  match segments path with "lib" :: "prng" :: _ -> true | _ -> false
