module Welford = Lopc_stats.Welford
module Time_average = Lopc_stats.Time_average
module P2_quantile = Lopc_stats.P2_quantile

let tracked_quantiles = [ 0.5; 0.9; 0.95; 0.99 ]

type t = {
  mutable response : Welford.t;
  mutable rw : Welford.t;
  mutable rq : Welford.t;
  mutable ry : Welford.t;
  mutable wire_time : Welford.t;
  mutable latency : Welford.t;
  mutable handler_service : Welford.t;
  mutable response_quantiles : (float * P2_quantile.t) list;
  mutable max_backlog : int;
  mutable backlog_at_arrival : Welford.t;
  mutable cycles : int;
  mutable failed_cycles : int;
  mutable request_sends : int;
  mutable retransmits : int;
  mutable duplicate_deliveries : int;
  mutable stale_replies : int;
  mutable dropped_messages : int;
  mutable tries_per_cycle : Welford.t;
  mutable try_latency : Welford.t;
  mutable measure_start : float;
  mutable measure_end : float;
  request_queue : Time_average.t array;
  reply_queue : Time_average.t array;
  busy_request : Time_average.t array;
  busy_reply : Time_average.t array;
  busy_thread : Time_average.t array;
}

let create ~nodes =
  let mk () = Array.init nodes (fun _ -> Time_average.create ()) in
  {
    response = Welford.create ();
    rw = Welford.create ();
    rq = Welford.create ();
    ry = Welford.create ();
    wire_time = Welford.create ();
    latency = Welford.create ();
    handler_service = Welford.create ();
    response_quantiles =
      List.map (fun q -> (q, P2_quantile.create ~q)) tracked_quantiles;
    max_backlog = 0;
    backlog_at_arrival = Welford.create ();
    cycles = 0;
    failed_cycles = 0;
    request_sends = 0;
    retransmits = 0;
    duplicate_deliveries = 0;
    stale_replies = 0;
    dropped_messages = 0;
    tries_per_cycle = Welford.create ();
    try_latency = Welford.create ();
    measure_start = 0.;
    measure_end = 0.;
    request_queue = mk ();
    reply_queue = mk ();
    busy_request = mk ();
    busy_reply = mk ();
    busy_thread = mk ();
  }

let elapsed t = t.measure_end -. t.measure_start

let throughput t =
  let dt = elapsed t in
  if dt <= 0. then Float.nan else Float.of_int t.cycles /. dt

let mean_response t = Welford.mean t.response

(* Goodput counts only cycles whose request was answered; offered load
   counts every request send, including retransmits. The two coincide when
   no faults are injected. *)
let goodput t = throughput t

let offered_load t =
  let dt = elapsed t in
  if dt <= 0. then Float.nan else Float.of_int t.request_sends /. dt

let mean_tries t = Welford.mean t.tries_per_cycle

let avg_over_nodes arrays ~upto =
  let n = Array.length arrays in
  if n = 0 then Float.nan
  else begin
    let acc = ref 0. in
    Array.iter (fun ta -> acc := !acc +. Time_average.average ta ~now:upto) arrays;
    !acc /. Float.of_int n
  end

let avg_request_queue t = avg_over_nodes t.request_queue ~upto:t.measure_end

let avg_reply_queue t = avg_over_nodes t.reply_queue ~upto:t.measure_end

let avg_request_util t = avg_over_nodes t.busy_request ~upto:t.measure_end

let avg_reply_util t = avg_over_nodes t.busy_reply ~upto:t.measure_end

let avg_thread_util t = avg_over_nodes t.busy_thread ~upto:t.measure_end

let max_handler_backlog t = t.max_backlog

let arrival_backlog t = t.backlog_at_arrival

let response_percentile t q =
  match List.assoc_opt q t.response_quantiles with
  | Some est -> P2_quantile.estimate est
  | None ->
    invalid_arg
      "Metrics.response_percentile: only 0.5, 0.9, 0.95 and 0.99 are tracked"

let reset_at t ~now =
  t.response <- Welford.create ();
  t.rw <- Welford.create ();
  t.rq <- Welford.create ();
  t.ry <- Welford.create ();
  t.wire_time <- Welford.create ();
  t.latency <- Welford.create ();
  t.handler_service <- Welford.create ();
  t.response_quantiles <-
    List.map (fun q -> (q, P2_quantile.create ~q)) tracked_quantiles;
  t.max_backlog <- 0;
  t.backlog_at_arrival <- Welford.create ();
  t.cycles <- 0;
  t.failed_cycles <- 0;
  t.request_sends <- 0;
  t.retransmits <- 0;
  t.duplicate_deliveries <- 0;
  t.stale_replies <- 0;
  t.dropped_messages <- 0;
  t.tries_per_cycle <- Welford.create ();
  t.try_latency <- Welford.create ();
  t.measure_start <- now;
  t.measure_end <- now;
  let reset_all = Array.iter (fun ta -> Time_average.reset ta ~now) in
  reset_all t.request_queue;
  reset_all t.reply_queue;
  reset_all t.busy_request;
  reset_all t.busy_reply;
  reset_all t.busy_thread
