(* Graceful-degradation cascade: an ordered list of attempts at the same
   answer, from most faithful to cheapest. Each attempt either produces a
   value or a short machine-readable reason token ("exhausted",
   "saturated", "state-space", ...); on failure the cascade falls through
   to the next attempt and remembers why. The winning stage's name becomes
   the row's provenance — verbatim for the first stage (conventionally
   "exact"), or "approx:<stage>:<reason>" for any fallback, where <reason>
   is why the previous stage gave up. Control flow is pure and sequential,
   so a cascade embedded in a deterministic artifact stays byte-identical
   at any --jobs setting. *)

type 'a attempt = { name : string; run : unit -> ('a, string) result }

type 'a outcome = {
  value : 'a option;
  provenance : string;
  trail : (string * string) list;
}

let attempt name run = { name; run }

let failed_provenance = "failed"

let run attempts =
  if attempts = [] then invalid_arg "Cascade.run: no attempts";
  let rec go trail = function
    | [] -> { value = None; provenance = failed_provenance; trail = List.rev trail }
    | a :: rest -> (
      match a.run () with
      | Ok v ->
        let provenance =
          match trail with
          | [] -> a.name
          | (_, reason) :: _ -> Printf.sprintf "approx:%s:%s" a.name reason
        in
        { value = Some v; provenance; trail = List.rev trail }
      | Error reason -> go ((a.name, reason) :: trail) rest)
  in
  go [] attempts
