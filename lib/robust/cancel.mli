(** Cooperative cancellation tokens.

    A token is an atomic flag. Cancellation is cooperative: flipping the
    flag does nothing by itself — the running computation must poll
    {!cancelled} (solvers do so once per iteration, the event engine once
    per event) and stop gracefully. Tokens are write-once: there is no
    way to un-cancel. *)

type t
(** A cancellation token. Safe to share across domains: the flag is an
    [Atomic.t] and cancellation only ever sets it. *)

val create : unit -> t
(** [create ()] is a fresh, un-cancelled token. *)

val cancel : t -> unit
(** Request cancellation. Idempotent; may be called from any domain. *)

val cancelled : t -> bool
(** [cancelled t] is [true] once [t] has been cancelled. *)
