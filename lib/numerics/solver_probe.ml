type event = {
  iter : int;
  residual : float;
  damping : float;
  iterate : float array;
  hottest : (int * float) option;
}

type t = event -> unit
