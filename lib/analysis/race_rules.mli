(** Data-race rules over the effect summaries ({!Effects}).

    Three rules, all driven by the interprocedural read/write footprints:

    - [domain-shared-mutation] (error): a task handed to
      [Parallel.run]/[map] writes — directly, through any chain of calls,
      or by passing a captured mutable value to a function that writes
      through its parameters — a mutable location visible outside the
      task. Concurrent tasks race on it; [Atomic.*] accesses are exempt.
    - [atomic-read-modify-write] (error): [Atomic.get] and a plain
      [Atomic.set] on the same cell in the same definition — a
      check-then-act that loses concurrent updates. Cells freshly
      allocated in the definition are exempt (initialisation).
    - [mutable-toplevel-escape] (warning): a task reads module-level
      mutable state, directly or transitively; the one shared instance
      ties its result to whatever other code and other tasks have done. *)

val shared_id : string

val rmw_id : string

val escape_id : string

val check : Effects.t -> Finding.t list
