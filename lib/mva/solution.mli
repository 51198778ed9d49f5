(** Common result type for MVA solvers. *)

type t = {
  throughput : float;            (** System throughput [X]. *)
  cycle_time : float;            (** Mean cycle time [N / X]. *)
  residence : float array;       (** Per-station residence time [R_k]. *)
  queue_length : float array;    (** Per-station mean customers [Q_k]. *)
  utilization : float array;     (** Per-station utilization [U_k = X·D_k]. *)
}
