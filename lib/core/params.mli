(** LoPC model parameters (paper §3, Table 3.1).

    The architectural characterization is shared with LogP:

    {v
    LoPC   LogP   Description
    St     L      Average wire time (latency) in the interconnect
    So     o      Average cost of message dispatch (interrupt + handler)
    —      g      Peak processor-to-network bandwidth gap (assumed 0)
    P      P      Number of processors
    C²     —      Variability of handler service time (optional)
    v}

    The algorithmic characterization is the pair [(n, W)]: each thread
    issues [n] blocking requests with an average of [W] cycles of local
    work between them (§3 derives both for a matrix-vector multiply). *)

type t = {
  p : int;     (** Number of processors. *)
  st : float [@lopc.cost] [@lopc.unit "cycles"];
      (** Wire latency per network traversal (LogP's [L]). *)
  so : float [@lopc.cost] [@lopc.unit "cycles"];
      (** Handler occupancy: interrupt + handler service (LogP's [o]). *)
  c2 : float [@lopc.cost];
      (** Squared coefficient of variation of handler service time:
          [0.] constant, [1.] exponential (default). *)
}

val create : ?c2:float -> p:int -> st:float -> so:float -> unit -> t
(** [create ~p ~st ~so ()] validates and builds a parameter set. [c2]
    defaults to [1.] (the paper's default exponential assumption).
    @raise Invalid_argument if [p < 1], [st < 0.], [so <= 0.] or
    [c2 < 0.]. *)

val validate : t -> (t, string) result
(** Check the invariants listed under {!create}. *)

type algorithm = {
  n : int;  (** Total blocking requests issued per thread. *)
  w : float [@lopc.cost] [@lopc.unit "cycles"];
      (** Average local work between requests. *)
}
(** Algorithmic characterization. *)

val algorithm : n:int -> w:float -> algorithm
(** @raise Invalid_argument if [n < 0] or [w < 0.]. *)

val pp : Format.formatter -> t -> unit
(** Render e.g. ["P=32 St=40 So=200 C2=0"]. *)

val logp_correspondence : (string * string * string) list
(** Rows of Table 3.1: [(lopc_name, logp_name, description)] — used by
    the reproduction harness to print the table. *)
