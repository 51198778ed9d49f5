(** Graceful-degradation cascade.

    A cascade is an ordered list of attempts at the same quantity, from
    most faithful to cheapest (exact CTMC → AMVA → asymptotic bound).
    When an attempt fails — diverged, saturated, budget exhausted, state
    space too large — the cascade records a short reason token and falls
    through to the next attempt instead of failing the whole row. The
    result carries a provenance string destined for a [Table] column. *)

type 'a attempt = { name : string; run : unit -> ('a, string) result }
(** One stage. [name] should be a short token ([exact], [amva],
    [bound]); the [Error] payload a short reason token ([exhausted],
    [saturated], [diverged], [state-space]). Both end up verbatim in
    provenance cells, so keep them free of spaces. *)

type 'a outcome = {
  value : 'a option;  (** The first success, or [None] if all failed. *)
  provenance : string;
      (** The winning stage's [name] when the first stage succeeded,
          ["approx:<stage>:<reason>"] for a fallback success (with
          [<reason>] the immediately preceding failure), or ["failed"]
          when nothing succeeded. *)
  trail : (string * string) list;
      (** Failed stages before the success (every stage when nothing
          succeeded), in attempt order, each paired with its reason. *)
}

val attempt : string -> (unit -> ('a, string) result) -> 'a attempt

val failed_provenance : string
(** The provenance string used when every stage fails (["failed"]). *)

val run : 'a attempt list -> 'a outcome
(** Try each attempt in order, stopping at the first [Ok]. Raises
    [Invalid_argument] on an empty attempt list; exceptions raised by an
    attempt are not caught — budget exhaustion must arrive as [Error _],
    not as an exception. *)
