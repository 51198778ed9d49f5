module Topology = Lopc_topology.Topology

module Rng = Lopc_prng.Rng
module Distribution = Lopc_dist.Distribution
module Event_heap = Lopc_eventsim.Event_heap
module Time_average = Lopc_stats.Time_average
module Welford = Lopc_stats.Welford
module Sim_probe = Lopc_obs.Sim_probe

(* Tables keyed by node id, hashed by the id itself: no [caml_hash] call
   per lookup, and memory in proportion to the entries. *)
module Id_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash (id : int) = id
end)

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
  counted : bool;
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

(* The messages in flight, in a pool of arrays indexed by an int message
   id. [send_copy] takes an id off the [free] stack; it goes back when its
   handler finishes ([handler_done]) or when [arrival] discards it as a
   stale reply. A dropped copy never takes one. The heap entries and the
   node inboxes that concern a message hold its id, an immediate, so
   storing one runs no write barrier and a send allocates no record.

   Ids are bookkeeping only: which id a message gets depends on which
   were freed before it, but no result, trace or event order reads an id
   (the heap orders entries by time and push order, never by payload), so
   the reuse order cannot change an output.

   A freed id keeps its [cycles], [hops] and [paths] pointers until the
   id is reused: the pool holds at most its high-water mark of dead
   messages' cycles, and resetting them would cost a barrier per message.
   The arrival time of a message at a node rides in that node's inbox,
   beside its id. *)
type pool = {
  mutable kinds : msg_kind array;
  mutable seqs : int array;  (* per-origin sequence number under faults; -1 otherwise *)
  mutable injected : float array;  (* when the message entered the interconnect *)
  mutable cycles : cycle array;
  mutable hops : int list array;  (* hops still to visit after the current one *)
  mutable paths : (int * Topology.direction) list array;  (* torus links still to cross *)
  mutable free : int array;  (* free ids, [free_count] of them *)
  mutable free_count : int;
}

(* What a node's thread is doing. The float each state needs lives in the
   machine's per-node flat arrays: [finish] while Running, [remaining]
   while Suspended (preempted, or waiting for the queue to drain). *)
type thread_state = Unstarted | Running | Suspended | Blocked

type node = {
  id : int;
  rng : Rng.t;
  thread : Spec.thread option;
  mutable tstate : thread_state;
  mutable work_event : Event_heap.handle;  (* end of the Running quantum *)
  mutable current_cycle : cycle option;
  (* Handler queue: a FIFO ring of [inbox_len] message ids from
     [inbox_head], each message's arrival time beside it in the flat
     [inbox_at], so a delivery stores no float box, allocates no queue
     cell and runs no write barrier. The capacity is a power of two. *)
  mutable inbox : int array;
  mutable inbox_at : float array;
  mutable inbox_head : int;
  mutable inbox_len : int;
  mutable busy : bool;  (* handler resource (CPU or protocol processor) *)
  mutable outstanding : int;  (* requests in flight (windowed sends) *)
  mutable cycles_done : int;   (* completed cycles (for barrier pacing) *)
  mutable parked : bool;       (* waiting at a barrier *)
  (* Requests issued so far in this run: the route's request index, and
     under faults the next request's sequence number for dedup. *)
  mutable issued : int;
  (* Fault-layer state (untouched when the spec injects no faults): the
     node's single outstanding request (faults require window = 1, so it
     belongs to [current_cycle]) while it is retried. [pending_seq] is -1
     when there is none; the time of its latest try is [last_sent]. *)
  mutable pending_seq : int;
  mutable pending_dest : int;
  mutable tries : int;
  mutable timer : Event_heap.handle;
  mutable reply_accepted : bool;
  seen : int Id_table.t;               (* origin -> highest seq delivered *)
}

type machine = {
  spec : Spec.t;
  (* Events are int codes, [kind lor (node lsl kind_bits)] (see
     [dispatch]), with the id of the message they concern as payload, or
     [no_msg]. *)
  heap : Event_heap.t;
  msgs : pool;
  (* The heap's FIFO lanes for events a constant delay after the clock:
     wire arrivals, request-handler and reply-handler completions, each
     [None] when its delay is not a constant (see [prepare]). *)
  wire_lane : Event_heap.lane option;
  request_lane : Event_heap.lane option;
  reply_lane : Event_heap.lane option;
  (* The clock: the time of the current event, the boxed float
     [Event_heap.popped_time] returned, kept as is so that every call
     that takes [~now] passes the same box instead of boxing the float
     again. *)
  mutable now : float;
  mutable executed : int;
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
  (* Per-node floats, in flat arrays indexed by node id (rather than
     mutable node fields) so their stores never allocate a float box:
     - the FIFO network interfaces, serialized by timestamp: a message
       passes each NI for [gap] cycles; the next message waits for it;
     - the thread's [finish] time while Running and [remaining] work
       while Suspended;
     - the arrival time of the message in service ([in_service_at]);
     - the fault layer's [last_sent]. *)
  send_ni_free : float array;
  recv_ni_free : float array;
  finish : float array;
  remaining : float array;
  in_service_at : float array;
  last_sent : float array;
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

(* Event kinds. [dispatch] matches on these values. *)
let kind_bits = 3
let ev_start = 0         (* node: the thread's first cycle *)
let ev_work_done = 1     (* node: the work quantum ended *)
let ev_wire_arrival = 2  (* node, msg: the message reached the node's NI *)
let ev_arrival = 3       (* node, msg: through the receive NI *)
let ev_handler_done = 4  (* node, msg: the handler finished *)
let ev_timeout = 5       (* node: the retransmission timer fired *)
let ev_barrier = 6       (* the barrier released *)
let ev_link_done = 7     (* node, msg: the message crossed a torus link *)

(* The payload of an event that concerns no message. *)
let no_msg = -1

(* --- message pool ------------------------------------------------------- *)

let no_cycle = { origin = 0.; t_start = 0.; t_sent = 0.; rq_total = 0.; wire_total = 0. }

let create_pool () =
  { kinds = [||]; seqs = [||]; injected = [||]; cycles = [||]; hops = [||]; paths = [||];
    free = [||]; free_count = 0 }

(* Double the pool. Ids are taken only from an empty stack, so every id
   below the old capacity is in flight and the new ids are the free
   ones. *)
let grow_pool p =
  let cap = Array.length p.kinds in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  p.kinds <- extend p.kinds Request;
  p.seqs <- extend p.seqs 0;
  p.injected <- extend p.injected 0.;
  p.cycles <- extend p.cycles no_cycle;
  p.hops <- extend p.hops [];
  p.paths <- extend p.paths [];
  p.free <- Array.init new_cap (fun k -> new_cap - 1 - k);
  p.free_count <- new_cap - cap

let take_msg p =
  if p.free_count = 0 then grow_pool p;
  p.free_count <- p.free_count - 1;
  p.free.(p.free_count)

let free_msg p id =
  p.free.(p.free_count) <- id;
  p.free_count <- p.free_count + 1

(* Push an event at absolute [time], no earlier than the clock. *)
let schedule m ~time kind node msg =
  if not (time >= m.now) then invalid_arg "Machine: event scheduled into the past";
  Event_heap.push m.heap ~time ~kind:(kind lor (node lsl kind_bits)) msg

(* Push an event a constant delay after the clock: into that delay's
   lane, whose last entry it cannot precede, or into the heap when
   [lane] is [None]. *)
let schedule_after m lane ~time kind node msg =
  match lane with
  | Some lane ->
    Event_heap.push_lane m.heap lane ~time ~kind:(kind lor (node lsl kind_bits)) msg
  | None -> ignore (schedule m ~time kind node msg)

let rec check_hops m = function
  | [] -> ()
  | hop :: rest ->
    if hop < 0 || hop >= m.spec.Spec.nodes then
      invalid_arg
        (Printf.sprintf "Machine: route returned node %d outside [0, %d)" hop
           m.spec.Spec.nodes);
    check_hops m rest

(* --- signal helpers ----------------------------------------------------- *)

let set_thread_running m node v =
  Time_average.update m.metrics.Metrics.busy_thread.(node.id) ~now:m.now v;
  match m.obs with
  | None -> ()
  | Some o -> Sim_probe.thread_running o ~node:node.id ~now:m.now (v > 0.5)

let queue_signal m node kind delta =
  let arr =
    match kind with
    | Request -> m.metrics.Metrics.request_queue
    | Reply -> m.metrics.Metrics.reply_queue
  in
  let ta = arr.(node.id) in
  Time_average.update ta ~now:m.now (Time_average.value ta +. delta)

let busy_signal m node kind v =
  let arr =
    match kind with
    | Request -> m.metrics.Metrics.busy_request
    | Reply -> m.metrics.Metrics.busy_reply
  in
  Time_average.update arr.(node.id) ~now:m.now v

(* --- handler queue --------------------------------------------------------- *)

let inbox_push m node msg =
  let cap = Array.length node.inbox in
  if node.inbox_len = cap then begin
    let new_cap = max 4 (2 * cap) in
    let inbox = Array.make new_cap no_msg and inbox_at = Array.make new_cap 0. in
    for k = 0 to cap - 1 do
      let j = (node.inbox_head + k) land (cap - 1) in
      inbox.(k) <- node.inbox.(j);
      inbox_at.(k) <- node.inbox_at.(j)
    done;
    node.inbox <- inbox;
    node.inbox_at <- inbox_at;
    node.inbox_head <- 0
  end;
  let j = (node.inbox_head + node.inbox_len) land (Array.length node.inbox - 1) in
  node.inbox.(j) <- msg;
  node.inbox_at.(j) <- m.now;
  node.inbox_len <- node.inbox_len + 1

(* Take the oldest message; its arrival time moves to [in_service_at]. *)
let inbox_pop m node =
  let j = node.inbox_head in
  let msg = node.inbox.(j) in
  m.in_service_at.(node.id) <- node.inbox_at.(j);
  node.inbox_head <- (j + 1) land (Array.length node.inbox - 1);
  node.inbox_len <- node.inbox_len - 1;
  msg

(* --- thread lifecycle ---------------------------------------------------- *)

let rec start_thread_work m node =
  let finish = m.now +. m.remaining.(node.id) in
  node.work_event <- schedule m ~time:finish ev_work_done node.id no_msg;
  m.finish.(node.id) <- finish;
  node.tstate <- Running;
  set_thread_running m node 1.

(* The thread may (re)start only when no handler holds the CPU; with a
   protocol processor the CPU is always available to the thread. *)
and resume_thread_if_possible m node =
  match node.tstate with
  | Suspended ->
    if m.spec.Spec.protocol_processor || not node.busy then start_thread_work m node
  | Unstarted | Running | Blocked -> ()

(* Begin a new compute/request cycle: sample the work and leave the thread
   Suspended; the caller's dispatch tail decides when it actually runs. *)
and begin_cycle m node =
  match node.thread with
  | None -> ()
  | Some thread ->
    let cycle =
      { origin = Float.of_int node.id; t_start = m.now; t_sent = Float.nan;
        rq_total = 0.; wire_total = 0. }
    in
    node.current_cycle <- Some cycle;
    m.remaining.(node.id) <- Distribution.sample thread.Spec.work node.rng;
    node.tstate <- Suspended

(* Work quantum complete: issue the blocking request. *)
and thread_done m node =
  let now = m.now in
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
  let issued = node.issued in
  node.issued <- issued + 1;
  let hops =
    match thread.Spec.route node.rng issued with
    | [] -> invalid_arg "Machine: route returned an empty hop list"
    | hops -> hops
  in
  check_hops m hops;
  let first, rest = (List.hd hops, List.tl hops) in
  (match m.spec.Spec.fault with
  | None -> send m ~src:node ~cycle ~kind:Request ~remaining:rest ~dest:first ~seq:(-1)
  | Some f ->
    if rest <> [] then
      invalid_arg "Machine: faults require single-hop routes";
    node.pending_seq <- issued;
    node.pending_dest <- first;
    node.tries <- 1;
    node.reply_accepted <- false;
    m.last_sent.(node.id) <- now;
    if m.measuring then
      m.metrics.Metrics.request_sends <- m.metrics.Metrics.request_sends + 1;
    let delay = Fault.timeout_for f ~try_:1 m.fault_rngs.(node.id) in
    node.timer <- schedule m ~time:(now +. delay) ev_timeout node.id no_msg;
    send m ~src:node ~cycle ~kind:Request ~remaining:[] ~dest:first ~seq:issued);
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
    emit m f ~src ~cycle ~kind ~remaining ~dest ~seq;
    if f.Fault.duplicate > 0. && Rng.bernoulli m.fault_rngs.(src.id) f.Fault.duplicate
    then emit m f ~src ~cycle ~kind ~remaining ~dest ~seq

(* One physical copy under faults: dropped, or sent with or without a
   delay spike. *)
and emit m f ~src ~cycle ~kind ~remaining ~dest ~seq =
  let frng = m.fault_rngs.(src.id) in
  if Rng.bernoulli frng f.Fault.drop then begin
    if m.measuring then
      m.metrics.Metrics.dropped_messages <- m.metrics.Metrics.dropped_messages + 1;
    match m.obs with
    | None -> ()
    | Some o -> Sim_probe.fault_event o ~node:src.id ~now:m.now "drop"
  end
  else begin
    let spiked = f.Fault.delay_epsilon > 0. && Rng.bernoulli frng f.Fault.delay_epsilon in
    send_copy m ~src ~cycle ~kind ~remaining ~dest ~seq ~spiked
  end

and send_copy m ~src ~cycle ~kind ~remaining ~dest ~seq ~spiked =
  let now = m.now in
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
  let p = m.msgs in
  let msg = take_msg p in
  p.kinds.(msg) <- kind;
  p.seqs.(msg) <- seq;
  p.injected.(msg) <- injected;
  p.cycles.(msg) <- cycle;
  p.hops.(msg) <- remaining;
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
    let lane = if spiked then None else m.wire_lane in
    schedule_after m lane ~time:(injected +. st) ev_wire_arrival dest msg
  | Some topo ->
    p.paths.(msg) <- Topology.route topo ~src:src.id ~dst:dest;
    traverse m topo ~dest msg ~depart:injected

(* Hop-by-hop torus traversal: each link is held for [link_time] (waiting
   if busy), each hop then adds [per_hop] propagation. *)
and traverse m topo ~dest msg ~depart =
  let p = m.msgs in
  match p.paths.(msg) with
  | [] ->
    let cycle = p.cycles.(msg) in
    cycle.wire_total <- cycle.wire_total +. (depart -. p.injected.(msg));
    ignore (schedule m ~time:depart ev_wire_arrival dest msg)
  | (node, direction) :: rest ->
    let free = m.links.(node) in
    let slot = Topology.direction_index direction in
    let start = Float.max depart free.(slot) in
    free.(slot) <- start +. topo.Topology.link_time;
    let next = start +. topo.Topology.link_time +. topo.Topology.per_hop in
    p.paths.(msg) <- rest;
    if rest = [] then traverse m topo ~dest msg ~depart:next
    else ignore (schedule m ~time:next ev_link_done dest msg)

(* The message reached the destination's NI; delivery into the handler
   queue costs another [gap] of (possibly queued) NI time. *)
and wire_arrival m node msg =
  let gap = m.spec.Spec.gap in
  if Float.equal gap 0. then arrival m node msg
  else begin
    let start = Float.max m.now m.recv_ni_free.(node.id) in
    m.recv_ni_free.(node.id) <- start +. gap;
    ignore (schedule m ~time:(start +. gap) ev_arrival node.id msg)
  end

(* Fault-layer admission control: request deliveries are checked against
   the dedup table (but still handled at full cost — the handler demand
   inflation the model predicts), and only the first reply of the pending
   sequence number is accepted; every other reply is discarded at zero
   cost. *)
and arrival m node msg =
  match m.spec.Spec.fault with
  | None -> deliver m node msg
  | Some _ -> (
    let p = m.msgs in
    let seq = p.seqs.(msg) in
    match p.kinds.(msg) with
    | Request ->
      let origin = Float.to_int p.cycles.(msg).origin in
      (* [find], not [find_opt]: a hit allocates no [Some]. *)
      (match Id_table.find node.seen origin with
      | last when seq <= last ->
        if m.measuring then
          m.metrics.Metrics.duplicate_deliveries <-
            m.metrics.Metrics.duplicate_deliveries + 1;
        (match m.obs with
        | None -> ()
        | Some o -> Sim_probe.fault_event o ~node:node.id ~now:m.now "duplicate")
      | _ -> Id_table.replace node.seen origin seq
      | exception Not_found -> Id_table.replace node.seen origin seq);
      deliver m node msg
    | Reply ->
      if node.pending_seq = seq && not node.reply_accepted then begin
        node.reply_accepted <- true;
        Event_heap.cancel m.heap node.timer;
        if m.measuring then
          Welford.add m.metrics.Metrics.try_latency (m.now -. m.last_sent.(node.id));
        deliver m node msg
      end
      else begin
        free_msg p msg;
        if m.measuring then
          m.metrics.Metrics.stale_replies <- m.metrics.Metrics.stale_replies + 1;
        match m.obs with
        | None -> ()
        | Some o -> Sim_probe.fault_event o ~node:node.id ~now:m.now "stale"
      end)

and deliver m node msg =
  queue_signal m node m.msgs.kinds.(msg) 1.;
  if m.measuring then begin
    (* Backlog this message finds: waiting messages plus any in service. *)
    let found = node.inbox_len + if node.busy then 1 else 0 in
    Welford.add m.metrics.Metrics.backlog_at_arrival (Float.of_int found);
    let depth = found + 1 in
    if depth > m.metrics.Metrics.max_backlog then
      m.metrics.Metrics.max_backlog <- depth
  end;
  inbox_push m node msg;
  (match m.obs with
  | None -> ()
  | Some o ->
    Sim_probe.queue_depth o ~node:node.id ~now:m.now
      (node.inbox_len + if node.busy then 1 else 0));
  try_dispatch m node

(* Start the next queued handler if the handler resource is idle,
   preempting the compute thread in message-passing mode. *)
and try_dispatch m node =
  let thread_running = match node.tstate with Running -> true | _ -> false in
  if
    (not node.busy)
    && node.inbox_len > 0
    (* Polling: a running thread is never interrupted — queued messages
       wait for the next poll point (request issue or blocking). *)
    && not (m.spec.Spec.polling && thread_running)
  then begin
    if not m.spec.Spec.protocol_processor then begin
      match node.tstate with
      | Running ->
        Event_heap.cancel m.heap node.work_event;
        m.remaining.(node.id) <- m.finish.(node.id) -. m.now;
        node.tstate <- Suspended;
        set_thread_running m node 0.
      | Unstarted | Suspended | Blocked -> ()
    end;
    let msg = inbox_pop m node in
    let kind = m.msgs.kinds.(msg) in
    node.busy <- true;
    busy_signal m node kind 1.;
    (match m.obs with
    | None -> ()
    | Some o ->
      Sim_probe.handler_begin o ~node:node.id ~now:m.now
        ~reply:(match kind with Reply -> true | Request -> false));
    let dist =
      match kind with
      | Request -> m.spec.Spec.handler
      | Reply -> m.spec.Spec.reply_handler
    in
    let cost = Distribution.sample dist node.rng in
    if m.measuring then Welford.add m.metrics.Metrics.handler_service cost;
    let lane =
      match kind with
      | Request -> m.request_lane
      | Reply -> m.reply_lane
    in
    schedule_after m lane ~time:(m.now +. cost) ev_handler_done node.id msg
  end

(* The message ends here: its fields are read first, so its id can go
   back to the pool before the next send takes one. *)
and handler_done m node msg =
  let now = m.now in
  let p = m.msgs in
  let kind = p.kinds.(msg) and cycle = p.cycles.(msg) and seq = p.seqs.(msg) in
  let remaining = p.hops.(msg) in
  free_msg p msg;
  node.busy <- false;
  busy_signal m node kind 0.;
  queue_signal m node kind (-1.);
  (match m.obs with
  | None -> ()
  | Some o ->
    Sim_probe.handler_end o ~node:node.id ~now
      ~reply:(match kind with Reply -> true | Request -> false);
    Sim_probe.queue_depth o ~node:node.id ~now node.inbox_len);
  (match kind with
  | Request -> begin
    cycle.rq_total <- cycle.rq_total +. (now -. m.in_service_at.(node.id));
    match remaining with
    | next :: rest ->
      send m ~src:node ~cycle ~kind:Request ~remaining:rest ~dest:next ~seq
    | [] ->
      send m ~src:node ~cycle ~kind:Reply ~remaining:[]
        ~dest:(Float.to_int cycle.origin) ~seq
  end
  | Reply -> complete_cycle m node cycle ~seq);
  try_dispatch m node;
  (* With a protocol processor the thread runs regardless of handler
     activity; on a shared CPU it may only resume once the queue drained. *)
  resume_thread_if_possible m node

(* The retransmission timer of the node's pending request fired. A timer
   leaves the heap the moment its reply is accepted, and the pending
   request is dropped only here or after that reply, so a timer that
   fires always belongs to an unanswered pending request. *)
and request_timeout m node =
  match m.spec.Spec.fault with
  | None -> assert false
  | Some f ->
    assert (node.pending_seq >= 0 && not node.reply_accepted);
    if node.tries >= f.Fault.max_tries then give_up m node
    else begin
      node.tries <- node.tries + 1;
      m.last_sent.(node.id) <- m.now;
      if m.measuring then begin
        m.metrics.Metrics.retransmits <- m.metrics.Metrics.retransmits + 1;
        m.metrics.Metrics.request_sends <- m.metrics.Metrics.request_sends + 1
      end;
      (match m.obs with
      | None -> ()
      | Some o ->
        Sim_probe.fault_event o ~node:node.id ~now:m.now
          ~value:(Float.of_int node.tries) "retransmit");
      let delay = Fault.timeout_for f ~try_:node.tries m.fault_rngs.(node.id) in
      node.timer <- schedule m ~time:(m.now +. delay) ev_timeout node.id no_msg;
      let cycle =
        match node.current_cycle with
        | Some c -> c
        | None -> assert false
      in
      send m ~src:node ~cycle ~kind:Request ~remaining:[] ~dest:node.pending_dest
        ~seq:node.pending_seq
    end

(* Retry budget exhausted: abandon the cycle. The thread moves on to its
   next cycle; any late replies for this sequence number are discarded as
   stale on arrival. *)
and give_up m node =
  node.pending_seq <- -1;
  node.outstanding <- node.outstanding - 1;
  (match m.obs with
  | None -> ()
  | Some o ->
    Sim_probe.fault_event o ~node:node.id ~now:m.now ~value:(Float.of_int node.tries)
      "giveup");
  if m.measuring then begin
    m.metrics.Metrics.measure_end <- m.now;
    m.metrics.Metrics.failed_cycles <- m.metrics.Metrics.failed_cycles + 1;
    Welford.add m.metrics.Metrics.tries_per_cycle (Float.of_int node.tries)
  end;
  finish_cycle m node;
  (* Unlike the reply path, nothing else runs after this timer event: the
     next cycle's work quantum must be kicked off here or the thread would
     stay suspended forever. *)
  resume_thread_if_possible m node

(* Reply handler finished at the origin: close the books on this cycle and
   start the next one. *)
and complete_cycle m node cycle ~seq =
  let now = m.now in
  let arrived = m.in_service_at.(node.id) in
  assert (Float.to_int cycle.origin = node.id);
  (* Whether the cycle enters the response statistics: it finished while
     measuring and started no earlier than the measurement. *)
  let counted = m.measuring && cycle.t_start >= m.metrics.Metrics.measure_start in
  node.outstanding <- node.outstanding - 1;
  (match m.spec.Spec.fault with
  | None -> ()
  | Some _ ->
    if node.pending_seq = seq then begin
      node.pending_seq <- -1;
      if m.measuring then
        Welford.add m.metrics.Metrics.tries_per_cycle (Float.of_int node.tries)
    end);
  (match m.obs with
  | None -> ()
  | Some o ->
    Sim_probe.cycle_completed o ~node:node.id ~now
      ~rw:(cycle.t_sent -. cycle.t_start) ~wire:cycle.wire_total
      ~rq:cycle.rq_total ~ry:(now -. arrived) ~total:(now -. cycle.t_start));
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
        reply_residence = now -. arrived;
        wire = cycle.wire_total;
        measured = m.measuring;
        counted;
      });
  if m.measuring then begin
    m.metrics.Metrics.measure_end <- now;
    m.metrics.Metrics.cycles <- m.metrics.Metrics.cycles + 1;
    if counted then begin
      Welford.add m.metrics.Metrics.response (now -. cycle.t_start);
      Welford.add m.metrics.Metrics.rw (cycle.t_sent -. cycle.t_start);
      Welford.add m.metrics.Metrics.rq cycle.rq_total;
      Welford.add m.metrics.Metrics.ry (now -. arrived);
      Welford.add m.metrics.Metrics.wire_time cycle.wire_total;
      Welford.add m.metrics.Metrics.latency (now -. cycle.t_sent)
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
        ignore (schedule m ~time:(m.now +. cost) ev_barrier 0 no_msg)
    | Some _ | None -> begin_cycle m node
  end
  | Unstarted | Running | Suspended -> ()

and release_barrier m =
  m.parked_count <- 0;
  Array.iter
    (fun n ->
      if n.parked then begin
        n.parked <- false;
        begin_cycle m n;
        resume_thread_if_possible m n
      end)
    m.nodes

(* Run one event: the code's low [kind_bits] bits say what happens, the
   rest say to which node. *)
let dispatch m code msg =
  let node = m.nodes.(code lsr kind_bits) in
  match code land ((1 lsl kind_bits) - 1) with
  | 0 (* ev_start *) ->
    begin_cycle m node;
    resume_thread_if_possible m node
  | 1 (* ev_work_done *) -> thread_done m node
  | 2 (* ev_wire_arrival *) -> wire_arrival m node msg
  | 3 (* ev_arrival *) -> arrival m node msg
  | 4 (* ev_handler_done *) -> handler_done m node msg
  | 5 (* ev_timeout *) -> request_timeout m node
  | 6 (* ev_barrier *) -> release_barrier m
  | _ (* ev_link_done *) -> (
    match m.spec.Spec.topology with
    | Some topo -> traverse m topo ~dest:node.id msg ~depart:m.now
    | None -> assert false)

(* Execute the earliest event. Returns [false] when none is left. *)
let step m =
  if Event_heap.is_empty m.heap then false
  else begin
    let msg = Event_heap.pop_exn m.heap in
    m.now <- Event_heap.popped_time m.heap;
    m.executed <- m.executed + 1;
    dispatch m (Event_heap.popped_kind m.heap) msg;
    (* Engine health is sampled every 256 executed events; the probe's
       events are pure instrumentation and never schedule anything. *)
    (match m.obs with
    | Some o when m.executed land 255 = 0 ->
      Sim_probe.engine_sample o ~now:m.now ~heap:(Event_heap.size m.heap)
        ~executed:m.executed
    | Some _ | None -> ());
    true
  end

(* --- driver -------------------------------------------------------------- *)

(* Hard runaway guard: a run that executes more events than this raises
   instead of spinning (the graceful stop is a [budget]). *)
let max_events = 200_000_000

(* Build the machine, schedule the initial cycles and run the warm-up
   phase; returns the machine plus a guarded single-step function. *)
let prepare ?on_cycle ?rng ?obs ?budget ~seed ~warmup ~spec () =
  (match Spec.validate spec with
  | Ok _ -> ()
  | Error reason -> invalid_arg ("Machine: " ^ reason));
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
          work_event = Event_heap.no_handle;
          current_cycle = None;
          inbox = [||];
          inbox_at = [||];
          inbox_head = 0;
          inbox_len = 0;
          busy = false;
          outstanding = 0;
          cycles_done = 0;
          parked = false;
          issued = 0;
          pending_seq = -1;
          pending_dest = 0;
          tries = 0;
          timer = Event_heap.no_handle;
          reply_accepted = false;
          seen = Id_table.create 8;
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
  let per_node () = Array.make spec.Spec.nodes 0. in
  (* A constant delay gets a lane, shared by every event kind with that
     delay: each such event is pushed at the clock plus the constant, and
     the clock never goes back. A wire arrival takes the wire lane only
     when it leaves at the clock: no NI gap and no torus in between. *)
  let heap = Event_heap.create () in
  let lanes = ref [] in
  let lane_of (d : Distribution.t) =
    match d with
    | Constant c -> (
      match List.find_opt (fun (delay, _) -> Float.equal delay c) !lanes with
      | Some (_, lane) -> Some lane
      | None ->
        let lane = Event_heap.new_lane heap in
        lanes := (c, lane) :: !lanes;
        Some lane)
    | Exponential _ | Uniform _ | Erlang _ | Hyperexponential _
    | Shifted_exponential _ | Empirical _ -> None
  in
  let wire_lane =
    if Option.is_none spec.Spec.topology && Float.equal spec.Spec.gap 0. then
      lane_of spec.Spec.wire
    else None
  in
  let request_lane = lane_of spec.Spec.handler in
  let reply_lane = lane_of spec.Spec.reply_handler in
  let m =
    { spec; heap; msgs = create_pool (); wire_lane; request_lane; reply_lane; now = 0.; executed = 0;
      nodes; metrics; measuring = false; completed_total = 0;
      completed_measured = 0; thread_count; parked_count = 0; on_cycle;
      links = Array.init spec.Spec.nodes (fun _ -> Array.make 4 0.);
      send_ni_free = per_node (); recv_ni_free = per_node (); finish = per_node ();
      remaining = per_node (); in_service_at = per_node (); last_sent = per_node ();
      fault_rngs; obs; interrupted = None }
  in
  if thread_count = 0 then invalid_arg "Machine: no node runs a compute thread";
  (* Kick off every thread's first cycle at time 0. *)
  Array.iter
    (fun node ->
      match node.thread with
      | None -> ()
      | Some _ -> ignore (schedule m ~time:0. ev_start node.id no_msg))
    nodes;
  (* Phase 1: warm-up. *)
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
        m.metrics.Metrics.measure_end <- Float.max m.metrics.Metrics.measure_end m.now;
      false
    | None ->
      if m.executed >= max_events then
        invalid_arg "Machine: event budget exhausted (likely a runaway configuration)";
      step m
  in
  while m.completed_total < warmup && step_guarded () do
    ()
  done;
  m.measuring <- true;
  Metrics.reset_at metrics ~now:m.now;
  (m, step_guarded)

let result_of m =
  { metrics = m.metrics; final_time = m.now; events = m.executed; interrupted = m.interrupted }

let finish_obs m =
  match m.obs with
  | None -> ()
  | Some o -> Sim_probe.finish o ~now:m.now

let run ?(seed = 42) ?rng ?warmup_cycles ?on_cycle ?obs ?budget ~spec ~cycles () =
  if cycles <= 0 then
    invalid_arg (Printf.sprintf "Machine: cycles must be positive, got %d" cycles);
  let warmup = match warmup_cycles with Some w -> max 0 w | None -> max 1000 (cycles / 10) in
  let m, step_guarded =
    prepare ?on_cycle ?rng ?obs ?budget ~seed ~warmup ~spec ()
  in
  while m.completed_measured < cycles && step_guarded () do
    ()
  done;
  finish_obs m;
  result_of m
