(* Cooperative cancellation tokens. A token is a single atomic flag.
   Tokens are write-once (never un-cancelled), which keeps the
   cross-domain protocol trivial: any domain may flip the flag, every
   reader eventually observes it, and there is no ABA window to reason
   about. *)

type t = bool Atomic.t

let create () = Atomic.make false

let cancel t = Atomic.set t true

let cancelled t = Atomic.get t
