module Topology = Lopc_topology.Topology

module Rng = Lopc_prng.Rng
module Distribution = Lopc_dist.Distribution
module Engine = Lopc_eventsim.Engine
module Time_average = Lopc_stats.Time_average
module Welford = Lopc_stats.Welford
module Sim_probe = Lopc_obs.Sim_probe

type result = {
  metrics : Metrics.t;
  final_time : float;
  events : int;
  interrupted : Lopc_robust.Budget.stop_reason option;
}

type cycle_report = {
  origin : int;
  started : float;
  sent : float;
  completed : float;
  request_residence : float;
  reply_residence : float;
  wire : float;
  measured : bool;
}

(* One compute/request cycle of a thread, from the instant the thread
   (re)starts local work to the completion of its reply handler.

   All-float on purpose: OCaml lays such a record out flat, so the
   per-hop accumulator stores ([t_sent], [rq_total], [wire_total]) are
   plain writes; with a mixed record every one of them would allocate a
   fresh float box. The origin node id rides along as a float — ids are
   small ints, exact far below 2^53 — and is converted back at its three
   integer use sites. *)
type cycle = {
  origin : float;
  t_start : float;
  mutable t_sent : float;
  mutable rq_total : float;
  mutable wire_total : float;
}

type msg_kind = Request | Reply

type msg = {
  kind : msg_kind;
  cycle : cycle;
  mutable remaining_hops : int list;  (* hops still to visit after the current one *)
  mutable arrived : float;            (* arrival time at the current node *)
  seq : int;  (* per-origin sequence number under faults; -1 otherwise *)
}

(* Retry state of the (single, window = 1) outstanding request of a node
   while faults are injected. *)
type pending = {
  pseq : int;
  pcycle : cycle;
  pdest : int;
  mutable tries : int;
  mutable timer : Engine.handle option;
  mutable reply_accepted : bool;
  mutable last_sent : float;
}

type thread_state =
  | Unstarted
  | Running of { handle : Engine.handle; finish : float }
  | Suspended of { remaining : float }  (* preempted, or waiting for queue drain *)
  | Blocked

type node = {
  id : int;
  rng : Rng.t;
  thread : Spec.thread option;
  mutable tstate : thread_state;
  mutable current_cycle : cycle option;
  queue : msg Queue.t;
  mutable busy : bool;  (* handler resource (CPU or protocol processor) *)
  mutable outstanding : int;  (* requests in flight (windowed sends) *)
  mutable cycles_done : int;   (* completed cycles (for barrier pacing) *)
  mutable parked : bool;       (* waiting at a barrier *)
  (* Fault-layer state (untouched when the spec injects no faults): *)
  mutable next_seq : int;              (* sequence numbers for dedup *)
  mutable pending : pending option;    (* in-flight request being retried *)
  seen : (int, int) Hashtbl.t;         (* origin -> highest seq delivered *)
}

type machine = {
  spec : Spec.t;
  engine : Engine.t;
  nodes : node array;
  metrics : Metrics.t;
  mutable measuring : bool;
  mutable completed_total : int;   (* completions since the start of time *)
  mutable completed_measured : int;
  thread_count : int;
  mutable parked_count : int;      (* threads currently at the barrier *)
  on_cycle : (cycle_report -> unit) option;
  (* Torus link bookkeeping: links.(node).(direction) is the time at which
     that outgoing link becomes free (timestamp-serialized FIFO). *)
  links : float array array;
  (* FIFO network interfaces, serialized by timestamp: a message passes
     each NI for [gap] cycles; the next message waits for the NI. Indexed
     by node id in flat float arrays (rather than mutable node fields) so
     the stores on the per-message path never allocate a float box. *)
  send_ni_free : float array;
  recv_ni_free : float array;
  (* Per-node fault-injection streams. Split from the master AFTER the node
     streams, and consulted only for fault decisions, so a run with a
     zero-probability fault config consumes exactly the same node-stream
     draws as a fault-free run — the replay bit-identity the tests rely
     on. Empty when [spec.fault = None]. *)
  fault_rngs : Rng.t array;
  (* Observability probe; [None] keeps the hot path to an option match. *)
  obs : Sim_probe.t option;
  (* Why the run loop stopped early, when a budget said so. *)
  mutable interrupted : Lopc_robust.Budget.stop_reason option;
}

(* Run [f] on the probe, when one is attached. *)
let obs_event m f = match m.obs with None -> () | Some o -> f o

let check_hop m hop =
  if hop < 0 || hop >= m.spec.Spec.nodes then
    invalid_arg
      (Printf.sprintf "Machine: route returned node %d outside [0, %d)" hop
         m.spec.Spec.nodes)

(* --- signal helpers ----------------------------------------------------- *)

let set_thread_running m node v =
  let now = Engine.now m.engine in
  Time_average.update m.metrics.Metrics.busy_thread.(node.id) ~now v;
  obs_event m (fun o -> Sim_probe.thread_running o ~node:node.id ~now (v > 0.5))

let queue_signal m node kind delta =
  let arr =
    match kind with
    | Request -> m.metrics.Metrics.request_queue
    | Reply -> m.metrics.Metrics.reply_queue
  in
  let ta = arr.(node.id) in
  Time_average.update ta ~now:(Engine.now m.engine) (Time_average.value ta +. delta)

let busy_signal m node kind v =
  let arr =
    match kind with
    | Request -> m.metrics.Metrics.busy_request
    | Reply -> m.metrics.Metrics.busy_reply
  in
  Time_average.update arr.(node.id) ~now:(Engine.now m.engine) v

(* --- thread lifecycle ---------------------------------------------------- *)

let rec start_thread_work m node remaining =
  let now = Engine.now m.engine in
  let handle = Engine.schedule m.engine ~delay:remaining (fun _ -> thread_done m node) in
  node.tstate <- Running { handle; finish = now +. remaining };
  set_thread_running m node 1.

(* The thread may (re)start only when no handler holds the CPU; with a
   protocol processor the CPU is always available to the thread. *)
and resume_thread_if_possible m node =
  match node.tstate with
  | Suspended { remaining } ->
    if m.spec.Spec.protocol_processor || not node.busy then
      start_thread_work m node remaining
  | Unstarted | Running _ | Blocked -> ()

(* Begin a new compute/request cycle: sample the work and leave the thread
   Suspended; the caller's dispatch tail decides when it actually runs. *)
and begin_cycle m node =
  match node.thread with
  | None -> ()
  | Some thread ->
    let now = Engine.now m.engine in
    let cycle =
      { origin = Float.of_int node.id; t_start = now; t_sent = Float.nan;
        rq_total = 0.; wire_total = 0. }
    in
    node.current_cycle <- Some cycle;
    let w = Distribution.sample thread.Spec.work node.rng in
    node.tstate <- Suspended { remaining = w }

(* Work quantum complete: issue the blocking request. *)
and thread_done m node =
  let now = Engine.now m.engine in
  set_thread_running m node 0.;
  let thread =
    match node.thread with
    | Some t -> t
    | None -> assert false
  in
  let cycle =
    match node.current_cycle with
    | Some c -> c
    | None -> assert false
  in
  cycle.t_sent <- now;
  node.outstanding <- node.outstanding + 1;
  (* A windowed (non-blocking) thread keeps computing until the window is
     full; a blocking thread (window 1) always waits here. *)
  if node.outstanding < thread.Spec.window then begin_cycle m node
  else node.tstate <- Blocked;
  let hops =
    match thread.Spec.route node.rng with
    | [] -> invalid_arg "Machine: route returned an empty hop list"
    | hops -> hops
  in
  List.iter (check_hop m) hops;
  let first, rest = (List.hd hops, List.tl hops) in
  (match m.spec.Spec.fault with
  | None -> send m ~src:node ~cycle ~kind:Request ~remaining:rest ~dest:first ~seq:(-1)
  | Some f ->
    if rest <> [] then
      invalid_arg "Machine: faults require single-hop routes";
    let seq = node.next_seq in
    node.next_seq <- seq + 1;
    let p =
      { pseq = seq; pcycle = cycle; pdest = first; tries = 1; timer = None;
        reply_accepted = false; last_sent = now }
    in
    node.pending <- Some p;
    if m.measuring then
      m.metrics.Metrics.request_sends <- m.metrics.Metrics.request_sends + 1;
    let delay = Fault.timeout_for f ~try_:1 m.fault_rngs.(node.id) in
    p.timer <- Some (Engine.schedule m.engine ~delay (fun _ -> request_timeout m node p));
    send m ~src:node ~cycle ~kind:Request ~remaining:[] ~dest:first ~seq);
  (* Request-issue is a poll point: in polling mode any handlers that
     queued up during the work quantum run now, before the thread may
     continue with its next quantum. *)
  try_dispatch m node;
  resume_thread_if_possible m node

(* --- message transport and handler execution ----------------------------- *)

(* Fault-aware send: each physical copy independently faces drop, a delay
   spike, and (for the first copy) network duplication; all fault decisions
   draw from the sender's fault stream only. *)
and send m ~src ~cycle ~kind ~remaining ~dest ~seq =
  match m.spec.Spec.fault with
  | None -> send_copy m ~src ~cycle ~kind ~remaining ~dest ~seq ~spiked:false
  | Some f ->
    let frng = m.fault_rngs.(src.id) in
    let emit () =
      if Rng.bernoulli frng f.Fault.drop then begin
        if m.measuring then
          m.metrics.Metrics.dropped_messages <-
            m.metrics.Metrics.dropped_messages + 1;
        obs_event m (fun o ->
            Sim_probe.fault_event o ~node:src.id ~now:(Engine.now m.engine) "drop")
      end
      else begin
        let spiked =
          f.Fault.delay_epsilon > 0. && Rng.bernoulli frng f.Fault.delay_epsilon
        in
        send_copy m ~src ~cycle ~kind ~remaining ~dest ~seq ~spiked
      end
    in
    emit ();
    if f.Fault.duplicate > 0. && Rng.bernoulli frng f.Fault.duplicate then emit ()

and send_copy m ~src ~cycle ~kind ~remaining ~dest ~seq ~spiked =
  let now = Engine.now m.engine in
  let msg = { kind; cycle; remaining_hops = remaining; arrived = Float.nan; seq } in
  let gap = m.spec.Spec.gap in
  (* Injection waits for the sender's NI, occupies it for [gap], then the
     interconnect follows. With gap = 0 this reduces to the plain wire. *)
  let injected =
    if Float.equal gap 0. then now
    else begin
      let start = Float.max now m.send_ni_free.(src.id) in
      m.send_ni_free.(src.id) <- start +. gap;
      start +. gap
    end
  in
  match m.spec.Spec.topology with
  | None ->
    let st =
      if spiked then begin
        match m.spec.Spec.fault with
        | Some f -> Distribution.sample f.Fault.delay_spike m.fault_rngs.(src.id)
        | None -> assert false
      end
      else Distribution.sample m.spec.Spec.wire (m.nodes.(dest)).rng
    in
    cycle.wire_total <- cycle.wire_total +. st;
    ignore
      (Engine.schedule_at m.engine ~time:(injected +. st) (fun _ ->
           wire_arrival m m.nodes.(dest) msg))
  | Some topo ->
    let path = Topology.route topo ~src:src.id ~dst:dest in
    traverse m ~topo ~msg ~dest ~injected_at:injected ~depart:injected path

(* Hop-by-hop torus traversal: each link is held for [link_time] (waiting
   if busy), each hop then adds [per_hop] propagation. *)
and traverse m ~topo ~msg ~dest ~injected_at ~depart path =
  match path with
  | [] ->
    msg.cycle.wire_total <- msg.cycle.wire_total +. (depart -. injected_at);
    ignore
      (Engine.schedule_at m.engine ~time:depart (fun _ ->
           wire_arrival m m.nodes.(dest) msg))
  | (node, direction) :: rest ->
    let free = m.links.(node) in
    let slot = Topology.direction_index direction in
    let start = Float.max depart free.(slot) in
    free.(slot) <- start +. topo.Topology.link_time;
    let next = start +. topo.Topology.link_time +. topo.Topology.per_hop in
    if rest = [] then traverse m ~topo ~msg ~dest ~injected_at ~depart:next []
    else
      ignore
        (Engine.schedule_at m.engine ~time:next (fun _ ->
             traverse m ~topo ~msg ~dest ~injected_at ~depart:next rest))

(* The message reached the destination's NI; delivery into the handler
   queue costs another [gap] of (possibly queued) NI time. *)
and wire_arrival m node msg =
  let gap = m.spec.Spec.gap in
  if Float.equal gap 0. then arrival m node msg
  else begin
    let now = Engine.now m.engine in
    let start = Float.max now m.recv_ni_free.(node.id) in
    m.recv_ni_free.(node.id) <- start +. gap;
    ignore
      (Engine.schedule_at m.engine ~time:(start +. gap) (fun _ -> arrival m node msg))
  end

(* Fault-layer admission control: crash windows lose the message, request
   deliveries are checked against the dedup table (but still handled at
   full cost — the handler demand inflation the model predicts), and only
   the first reply of the pending sequence number is accepted; every other
   reply is discarded at zero cost. *)
and arrival m node msg =
  match m.spec.Spec.fault with
  | None -> deliver m node msg
  | Some f ->
    let now = Engine.now m.engine in
    if Fault.is_crashed f ~node:node.id ~now then begin
      if m.measuring then
        m.metrics.Metrics.dropped_messages <- m.metrics.Metrics.dropped_messages + 1;
      obs_event m (fun o -> Sim_probe.fault_event o ~node:node.id ~now "drop")
    end
    else begin
      match msg.kind with
      | Request ->
        let origin = Float.to_int msg.cycle.origin in
        (match Hashtbl.find_opt node.seen origin with
        | Some last when msg.seq <= last ->
          if m.measuring then
            m.metrics.Metrics.duplicate_deliveries <-
              m.metrics.Metrics.duplicate_deliveries + 1;
          obs_event m (fun o -> Sim_probe.fault_event o ~node:node.id ~now "duplicate")
        | Some _ | None -> Hashtbl.replace node.seen origin msg.seq);
        deliver m node msg
      | Reply -> begin
        match node.pending with
        | Some p when p.pseq = msg.seq && not p.reply_accepted ->
          p.reply_accepted <- true;
          (match p.timer with
          | Some h ->
            Engine.cancel h;
            p.timer <- None
          | None -> ());
          if m.measuring then
            Welford.add m.metrics.Metrics.try_latency (now -. p.last_sent);
          deliver m node msg
        | Some _ | None ->
          if m.measuring then
            m.metrics.Metrics.stale_replies <- m.metrics.Metrics.stale_replies + 1;
          obs_event m (fun o -> Sim_probe.fault_event o ~node:node.id ~now "stale")
      end
    end

and deliver m node msg =
  msg.arrived <- Engine.now m.engine;
  queue_signal m node msg.kind 1.;
  if m.measuring then begin
    (* Backlog this message finds: waiting messages plus any in service. *)
    let found = Queue.length node.queue + if node.busy then 1 else 0 in
    Welford.add m.metrics.Metrics.backlog_at_arrival (Float.of_int found);
    let depth = found + 1 in
    if depth > m.metrics.Metrics.max_backlog then
      m.metrics.Metrics.max_backlog <- depth
  end;
  Queue.push msg node.queue;
  obs_event m (fun o ->
      Sim_probe.queue_depth o ~node:node.id ~now:msg.arrived
        (Queue.length node.queue + if node.busy then 1 else 0));
  try_dispatch m node

(* Start the next queued handler if the handler resource is idle,
   preempting the compute thread in message-passing mode. *)
and try_dispatch m node =
  let thread_running = match node.tstate with Running _ -> true | _ -> false in
  if
    (not node.busy)
    && (not (Queue.is_empty node.queue))
    (* Polling: a running thread is never interrupted — queued messages
       wait for the next poll point (request issue or blocking). *)
    && not (m.spec.Spec.polling && thread_running)
  then begin
    let now = Engine.now m.engine in
    if not m.spec.Spec.protocol_processor then begin
      match node.tstate with
      | Running { handle; finish } ->
        Engine.cancel handle;
        node.tstate <- Suspended { remaining = finish -. now };
        set_thread_running m node 0.
      | Unstarted | Suspended _ | Blocked -> ()
    end;
    let msg = Queue.pop node.queue in
    node.busy <- true;
    busy_signal m node msg.kind 1.;
    obs_event m (fun o ->
        Sim_probe.handler_begin o ~node:node.id ~now
          ~reply:(match msg.kind with Reply -> true | Request -> false));
    let dist =
      match msg.kind with
      | Request -> m.spec.Spec.handler
      | Reply -> m.spec.Spec.reply_handler
    in
    let cost = Distribution.sample dist node.rng in
    let cost =
      match m.spec.Spec.fault with
      | None -> cost
      | Some f -> cost *. Fault.slowdown_at f ~node:node.id ~now
    in
    if m.measuring then Welford.add m.metrics.Metrics.handler_service cost;
    ignore (Engine.schedule m.engine ~delay:cost (fun _ -> handler_done m node msg))
  end

and handler_done m node msg =
  let now = Engine.now m.engine in
  node.busy <- false;
  busy_signal m node msg.kind 0.;
  queue_signal m node msg.kind (-1.);
  obs_event m (fun o ->
      Sim_probe.handler_end o ~node:node.id ~now
        ~reply:(match msg.kind with Reply -> true | Request -> false);
      Sim_probe.queue_depth o ~node:node.id ~now
        (Queue.length node.queue));
  (match msg.kind with
  | Request -> begin
    msg.cycle.rq_total <- msg.cycle.rq_total +. (now -. msg.arrived);
    match msg.remaining_hops with
    | next :: rest ->
      send m ~src:node ~cycle:msg.cycle ~kind:Request ~remaining:rest ~dest:next
        ~seq:msg.seq
    | [] ->
      send m ~src:node ~cycle:msg.cycle ~kind:Reply ~remaining:[]
        ~dest:(Float.to_int msg.cycle.origin) ~seq:msg.seq
  end
  | Reply -> complete_cycle m node msg);
  try_dispatch m node;
  (* With a protocol processor the thread runs regardless of handler
     activity; on a shared CPU it may only resume once the queue drained. *)
  resume_thread_if_possible m node

(* The retransmission timer of a pending request fired. *)
and request_timeout m node p =
  match m.spec.Spec.fault with
  | None -> assert false
  | Some f -> begin
    (* Guard against a stale (logically cancelled) timer: the pending slot
       must still hold this very request and no reply may be in. *)
    match node.pending with
    | Some q when q.pseq = p.pseq && not p.reply_accepted ->
      if p.tries >= f.Fault.max_tries then give_up m node p
      else begin
        p.tries <- p.tries + 1;
        p.last_sent <- Engine.now m.engine;
        if m.measuring then begin
          m.metrics.Metrics.retransmits <- m.metrics.Metrics.retransmits + 1;
          m.metrics.Metrics.request_sends <- m.metrics.Metrics.request_sends + 1
        end;
        obs_event m (fun o ->
            Sim_probe.fault_event o ~node:node.id ~now:p.last_sent
              ~value:(Float.of_int p.tries) "retransmit");
        let delay = Fault.timeout_for f ~try_:p.tries m.fault_rngs.(node.id) in
        p.timer <-
          Some (Engine.schedule m.engine ~delay (fun _ -> request_timeout m node p));
        send m ~src:node ~cycle:p.pcycle ~kind:Request ~remaining:[] ~dest:p.pdest
          ~seq:p.pseq
      end
    | Some _ | None -> ()
  end

(* Retry budget exhausted: abandon the cycle. The thread moves on to its
   next cycle; any late replies for this sequence number are discarded as
   stale on arrival. *)
and give_up m node p =
  node.pending <- None;
  node.outstanding <- node.outstanding - 1;
  obs_event m (fun o ->
      Sim_probe.fault_event o ~node:node.id ~now:(Engine.now m.engine)
        ~value:(Float.of_int p.tries) "giveup");
  if m.measuring then begin
    m.metrics.Metrics.measure_end <- Engine.now m.engine;
    m.metrics.Metrics.failed_cycles <- m.metrics.Metrics.failed_cycles + 1;
    Welford.add m.metrics.Metrics.tries_per_cycle (Float.of_int p.tries)
  end;
  finish_cycle m node;
  (* Unlike the reply path, nothing else runs after this timer event: the
     next cycle's work quantum must be kicked off here or the thread would
     stay suspended forever. *)
  resume_thread_if_possible m node

(* Reply handler finished at the origin: close the books on this cycle and
   start the next one. *)
and complete_cycle m node msg =
  let now = Engine.now m.engine in
  let cycle = msg.cycle in
  assert (Float.to_int cycle.origin = node.id);
  node.outstanding <- node.outstanding - 1;
  (match m.spec.Spec.fault with
  | None -> ()
  | Some _ -> (
    match node.pending with
    | Some p when p.pseq = msg.seq ->
      node.pending <- None;
      if m.measuring then
        Welford.add m.metrics.Metrics.tries_per_cycle (Float.of_int p.tries)
    | Some _ | None -> ()));
  obs_event m (fun o ->
      Sim_probe.cycle_completed o ~node:node.id ~now
        ~rw:(cycle.t_sent -. cycle.t_start) ~wire:cycle.wire_total
        ~rq:cycle.rq_total ~ry:(now -. msg.arrived) ~total:(now -. cycle.t_start));
  (match m.on_cycle with
  | None -> ()
  | Some observer ->
    observer
      {
        origin = node.id;
        started = cycle.t_start;
        sent = cycle.t_sent;
        completed = now;
        request_residence = cycle.rq_total;
        reply_residence = now -. msg.arrived;
        wire = cycle.wire_total;
        measured = m.measuring;
      });
  if m.measuring then begin
    m.metrics.Metrics.measure_end <- now;
    m.metrics.Metrics.cycles <- m.metrics.Metrics.cycles + 1;
    if cycle.t_start >= m.metrics.Metrics.measure_start then begin
      Welford.add m.metrics.Metrics.response (now -. cycle.t_start);
      Welford.add m.metrics.Metrics.rw (cycle.t_sent -. cycle.t_start);
      Welford.add m.metrics.Metrics.rq cycle.rq_total;
      Welford.add m.metrics.Metrics.ry (now -. msg.arrived);
      Welford.add m.metrics.Metrics.wire_time cycle.wire_total;
      Welford.add m.metrics.Metrics.latency (now -. cycle.t_sent);
      List.iter
        (fun (_, est) -> Lopc_stats.P2_quantile.add est (now -. cycle.t_start))
        m.metrics.Metrics.response_quantiles
    end
  end;
  finish_cycle m node

(* Shared tail of answered and abandoned cycles: advance the counters that
   pace the run loop, the barrier, and the thread's next cycle. *)
and finish_cycle m node =
  m.completed_total <- m.completed_total + 1;
  if m.measuring then m.completed_measured <- m.completed_measured + 1;
  node.cycles_done <- node.cycles_done + 1;
  (* A blocked thread starts its next cycle now; a windowed thread that is
     still computing just sees its window open up. A barrier interval
     boundary parks the thread until every thread arrives. *)
  match node.tstate with
  | Blocked -> begin
    match m.spec.Spec.barrier with
    | Some { Spec.interval; cost } when node.cycles_done mod interval = 0 ->
      node.parked <- true;
      m.parked_count <- m.parked_count + 1;
      if m.parked_count = m.thread_count then
        (* Last thread arrived: release everyone after the barrier cost. *)
        ignore
          (Engine.schedule m.engine ~delay:cost (fun _ ->
               m.parked_count <- 0;
               Array.iter
                 (fun n ->
                   if n.parked then begin
                     n.parked <- false;
                     begin_cycle m n;
                     resume_thread_if_possible m n
                   end)
                 m.nodes))
    | Some _ | None -> begin_cycle m node
  end
  | Unstarted | Running _ | Suspended _ -> ()

(* --- driver -------------------------------------------------------------- *)

(* Build the machine, schedule the initial cycles and run the warm-up
   phase; returns the machine plus a guarded single-step function. *)
let prepare ?on_cycle ?rng ?obs ?budget ~seed ~warmup ~max_events ~spec () =
  (match Spec.validate spec with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("Machine: " ^ reason));
  let engine = Engine.create () in
  (* The master stream may be supplied by the caller (a split child keyed
     on the replication, for parallel reproduction runs); everything below
     only ever splits and draws from [master], and the machine record owns
     all other state, so concurrent [run] calls never share anything. *)
  let master = match rng with Some r -> r | None -> Rng.create seed in
  let metrics = Metrics.create ~nodes:spec.Spec.nodes in
  let nodes =
    Array.init spec.Spec.nodes (fun id ->
        {
          id;
          rng = Rng.split master;
          thread = spec.Spec.threads.(id);
          tstate = Unstarted;
          current_cycle = None;
          queue = Queue.create ();
          busy = false;
          outstanding = 0;
          cycles_done = 0;
          parked = false;
          next_seq = 0;
          pending = None;
          seen = Hashtbl.create 8;
        })
  in
  (* Fault streams MUST be split after every node stream so that the node
     streams (and hence a zero-probability faulty run) are identical to a
     fault-free run under the same seed. *)
  let fault_rngs =
    match spec.Spec.fault with
    | None -> [||]
    | Some _ -> Array.init spec.Spec.nodes (fun _ -> Rng.split master)
  in
  let thread_count =
    Array.fold_left (fun acc n -> if Option.is_none n.thread then acc else acc + 1) 0 nodes
  in
  let m =
    { spec; engine; nodes; metrics; measuring = false; completed_total = 0;
      completed_measured = 0; thread_count; parked_count = 0; on_cycle;
      links = Array.init spec.Spec.nodes (fun _ -> Array.make 4 0.);
      send_ni_free = Array.make spec.Spec.nodes 0.;
      recv_ni_free = Array.make spec.Spec.nodes 0.;
      fault_rngs; obs; interrupted = None }
  in
  if thread_count = 0 then invalid_arg "Machine: no node runs a compute thread";
  (match obs with
  | None -> ()
  | Some o ->
    (* Engine health is sampled every 256 executed events; the probe's
       events are pure instrumentation and never schedule anything. *)
    Engine.set_observer engine (fun e ->
        if Engine.events_processed e land 255 = 0 then
          Sim_probe.engine_sample o ~now:(Engine.now e) ~heap:(Engine.pending e)
            ~executed:(Engine.events_processed e)));
  (* Kick off every thread's first cycle (optionally staggered). *)
  Array.iter
    (fun node ->
      match node.thread with
      | None -> ()
      | Some _ ->
        let delay =
          match spec.Spec.initial_delay with None -> 0. | Some f -> f node.id
        in
        if delay < 0. then invalid_arg "Machine: negative initial delay";
        ignore
          (Engine.schedule engine ~delay (fun _ ->
               begin_cycle m node;
               resume_thread_if_possible m node)))
    nodes;
  (* Phase 1: warm-up. *)
  let steps = ref 0 in
  let step_guarded () =
    (* The graceful stop (one unit of fuel per event, cancellation
       observed within one event) comes before the legacy hard guard. *)
    let stop =
      match budget with None -> None | Some b -> Lopc_robust.Budget.check b
    in
    match stop with
    | Some reason ->
      m.interrupted <- Some reason;
      (* Close the measurement window at the stop time: queue and busy
         time-averages have integrated past the last completed cycle, and
         leaving [measure_end] behind them would make the utilization
         readouts see time running backwards. *)
      if m.measuring then
        m.metrics.Metrics.measure_end <-
          Float.max m.metrics.Metrics.measure_end (Engine.now engine);
      false
    | None ->
      incr steps;
      if !steps > max_events then
        invalid_arg "Machine: event budget exhausted (likely a runaway configuration)";
      Engine.step engine
  in
  while m.completed_total < warmup && step_guarded () do
    ()
  done;
  m.measuring <- true;
  Metrics.reset_at metrics ~now:(Engine.now engine);
  (m, step_guarded)

let result_of m =
  {
    metrics = m.metrics;
    final_time = Engine.now m.engine;
    events = Engine.events_processed m.engine;
    interrupted = m.interrupted;
  }

let finish_obs m =
  match m.obs with
  | None -> ()
  | Some o -> Sim_probe.finish o ~now:(Engine.now m.engine)

let run ?(seed = 42) ?rng ?warmup_cycles ?(max_events = 200_000_000) ?on_cycle ?obs
    ?budget ~spec ~cycles () =
  if cycles <= 0 then invalid_arg "Machine: cycles must be positive";
  let warmup = match warmup_cycles with Some w -> max 0 w | None -> max 1000 (cycles / 10) in
  let m, step_guarded =
    prepare ?on_cycle ?rng ?obs ?budget ~seed ~warmup ~max_events ~spec ()
  in
  while m.completed_measured < cycles && step_guarded () do
    ()
  done;
  finish_obs m;
  result_of m
