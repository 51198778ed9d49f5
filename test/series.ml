(* Fixed-window trajectory of a piecewise-constant signal: the signal's
   time average over each consecutive window of [window] simulated
   cycles, built on Lopc_stats.Time_average. Closing a window advances the
   accumulator to the window boundary and restarts it there, so
   [integral] equals what one Time_average over the whole run would report
   (up to float summation order). The probe tests integrate recorded
   spans with it. *)

module Time_average = Lopc_stats.Time_average

type t = {
  window : float;
  mutable window_start : float;
  acc : Time_average.t;  (* integrates the open window only *)
  mutable closed_rev : (float * float) list;  (* (start, mean), newest first *)
  mutable closed_area : float;
}

let create ~window () =
  if not (Float.is_finite window) || window <= 0. then
    invalid_arg "Series.create: window must be positive and finite";
  {
    window;
    window_start = 0.;
    acc = Time_average.create ();
    closed_rev = [];
    closed_area = 0.;
  }

(* Close every window boundary at or before [now]. [reset] keeps the
   signal value while restarting integration at the boundary, which is
   exactly the window-rollover semantics we need. *)
let rec close_until t now =
  let boundary = t.window_start +. t.window in
  if now >= boundary then begin
    let area = Time_average.integral t.acc ~now:boundary in
    t.closed_rev <- (t.window_start, area /. t.window) :: t.closed_rev;
    t.closed_area <- t.closed_area +. area;
    Time_average.reset t.acc ~now:boundary;
    t.window_start <- boundary;
    close_until t now
  end

let update t ~now v =
  close_until t now;
  Time_average.update t.acc ~now v

let points t = Array.of_list (List.rev t.closed_rev)

let integral t ~now = t.closed_area +. Time_average.integral t.acc ~now

let average t ~now =
  if now <= 0. then Float.nan else integral t ~now /. now
