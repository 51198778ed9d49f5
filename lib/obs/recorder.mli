(** Span/event recorder with deterministic, simulation-clock timestamps.

    A {!t} accumulates a bounded, monotonically timestamped stream of
    begin/end spans, instants and counter samples, each attached to an
    integer [track] (one per simulated node, plus synthetic tracks for
    the engine itself). The stream renders either as Chrome
    [trace_event] JSON — loadable in [chrome://tracing] and Perfetto —
    or as a compact line-oriented text format for grepping and golden
    tests.

    Timestamps are simulated cycles, never wall clock, so recordings are
    byte-identical across runs and machines (the [determinism-taint]
    lint rule treats every [lib/obs] definition as an entry). *)

type arg =
  | Str of string  (** Rendered as a JSON string. *)
  | Num of float  (** Rendered with [%.9g]. *)
  | Int of int
      (** Rendered without a decimal point (counts, sequence numbers). *)

type kind =
  | Begin  (** Opens a span on a track; must be closed by {!End}. *)
  | End  (** Closes the innermost open span of the same name. *)
  | Instant  (** A point event (fault, retransmit, cycle completion). *)
  | Counter  (** A sampled numeric series (queue depth, heap size). *)

type event = {
  ts : float;  (** Simulated-cycle timestamp. *)
  track : int;  (** Rendered as the Chrome [tid]. *)
  kind : kind;
  name : string;
  args : (string * arg) list;
}

type t

val create : ?limit:int -> unit -> t
(** A fresh recorder keeping at most [limit] events (default
    [200_000]); once full, further events are counted in {!dropped} and
    discarded, so a runaway simulation cannot exhaust memory.
    @raise Invalid_argument if [limit < 1]. *)

val emit :
  t -> ts:float -> track:int -> kind:kind -> name:string ->
  (string * arg) list -> unit
(** Append one event. Timestamps must be non-decreasing across calls —
    the simulator emits in event-execution order, which is time order.
    @raise Invalid_argument if [ts] precedes the previous event or is
    not finite. *)

val begin_span : t -> ts:float -> track:int -> string -> unit
(** [emit] shorthand for a {!Begin} with no args. *)

val end_span : t -> ts:float -> track:int -> string -> unit
(** [emit] shorthand for an {!End} with no args. *)

val instant :
  ?args:(string * arg) list -> t -> ts:float -> track:int -> string -> unit
(** [emit] shorthand for an {!Instant}. *)

val counter : t -> ts:float -> track:int -> string -> float -> unit
(** [emit] shorthand for a {!Counter} carrying [("value", Num v)]. *)

val length : t -> int
(** Events currently held. *)

val dropped : t -> int
(** Events discarded after the limit was reached. *)

val events : t -> event list
(** Recorded events, oldest first. *)

val pp_chrome : Format.formatter -> t -> unit
(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]): spans as
    [ph:"B"]/[ph:"E"], instants as thread-scoped [ph:"i"], counters as
    [ph:"C"]. Load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

val pp_text : Format.formatter -> t -> unit
(** Compact text: a [# lopc-obs/1] header then one
    [<ts> <track> <B|E|I|C> <name> [k=v ...]] line per event. *)

val write_file : t -> string -> unit
(** Write the recording to [path]: Chrome JSON when the file name ends
    in [.json], text otherwise. *)
