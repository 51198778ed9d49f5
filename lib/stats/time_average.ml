type t = {
  mutable start_time : float;
  mutable last_time : float;
  mutable value : float;
  mutable area : float;
}

let create ?(value = 0.) () = { start_time = 0.; last_time = 0.; value; area = 0. }

let advance t now =
  if now < t.last_time then invalid_arg "Time_average: time went backwards";
  t.area <- t.area +. (t.value *. (now -. t.last_time));
  t.last_time <- now

let update t ~now v =
  advance t now;
  t.value <- v

let value t = t.value

let integral t ~now =
  if now < t.last_time then invalid_arg "Time_average.integral: time went backwards";
  t.area +. (t.value *. (now -. t.last_time))

let average t ~now =
  let elapsed = now -. t.start_time in
  if elapsed <= 0. then Float.nan else integral t ~now /. elapsed

let reset t ~now =
  advance t now;
  t.start_time <- now;
  t.area <- 0.
