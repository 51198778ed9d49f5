(** Exact Mean Value Analysis for single-class closed product-form
    networks (Reiser & Lavenberg 1980, the paper's reference [18]).

    The exact recursion over population [n = 1..N]:
    - [R_k(n) = D_k ·. (1 + Q_k(n−1))] at queueing stations,
      [R_k(n) = D_k] at delay stations (Arrival Theorem);
    - [X(n) = n / (Z + Σ_k R_k(n))];
    - [Q_k(n) = X(n) ·. R_k(n)] (Little).

    Exact MVA is the ground truth the approximate solvers (and Bard's
    approximation used by LoPC) are tested against. It assumes exponential
    service at single-server FCFS stations, so the [scv] field is ignored
    and multi-server stations are rejected ([Invalid_argument]). *)

val solve :
  ?think_time:float -> stations:Station.t array -> population:int -> unit -> Solution.t
(** [solve ~think_time ~stations ~population ()] runs the exact recursion.
    [think_time] [Z] defaults to [0.].
    @raise Invalid_argument if [population < 0], [think_time < 0.], or
    [stations] is empty and [think_time = 0.] with positive population
    (cycle time would be zero). *)
