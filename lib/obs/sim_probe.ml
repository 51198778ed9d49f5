type handler_state = H_idle | H_request | H_reply

type node_state = { mutable thread_open : bool; mutable handler : handler_state }

type t = { nodes : int; recorder : Recorder.t; states : node_state array }

let span_w = "W"
let span_rq = "Rq"
let span_ry = "Ry"

(* Track layout: two tracks per node so spans on one track never overlap
   themselves even when a protocol processor lets the thread compute
   while a handler is in service. *)
let thread_track node = 2 * node
let handler_track node = (2 * node) + 1
let engine_track t = 2 * t.nodes

let create ~recorder ~nodes () =
  if nodes < 1 then invalid_arg "Sim_probe.create: nodes must be positive";
  {
    nodes;
    recorder;
    states = Array.init nodes (fun _ -> { thread_open = false; handler = H_idle });
  }

let thread_running t ~node ~now running =
  let st = t.states.(node) in
  if running && not st.thread_open then begin
    st.thread_open <- true;
    Recorder.begin_span t.recorder ~ts:now ~track:(thread_track node) span_w
  end
  else if (not running) && st.thread_open then begin
    st.thread_open <- false;
    Recorder.end_span t.recorder ~ts:now ~track:(thread_track node) span_w
  end

let handler_begin t ~node ~now ~reply =
  let st = t.states.(node) in
  match st.handler with
  | H_request | H_reply -> ()  (* already in service; the machine never does this *)
  | H_idle ->
    if reply then begin
      st.handler <- H_reply;
      Recorder.begin_span t.recorder ~ts:now ~track:(handler_track node) span_ry
    end
    else begin
      st.handler <- H_request;
      Recorder.begin_span t.recorder ~ts:now ~track:(handler_track node) span_rq
    end

let handler_end t ~node ~now ~reply =
  let st = t.states.(node) in
  match (st.handler, reply) with
  | H_reply, true ->
    st.handler <- H_idle;
    Recorder.end_span t.recorder ~ts:now ~track:(handler_track node) span_ry
  | H_request, false ->
    st.handler <- H_idle;
    Recorder.end_span t.recorder ~ts:now ~track:(handler_track node) span_rq
  | (H_idle | H_request | H_reply), _ -> ()

let queue_depth t ~node ~now depth =
  Recorder.counter t.recorder ~ts:now ~track:(handler_track node) "queue"
    (Float.of_int depth)

let cycle_completed t ~node ~now ~rw ~wire ~rq ~ry ~total =
  Recorder.instant t.recorder ~ts:now ~track:(thread_track node) "cycle"
    ~args:
      [
        ("rw", Recorder.Num rw);
        ("wire", Recorder.Num wire);
        ("rq", Recorder.Num rq);
        ("ry", Recorder.Num ry);
        ("r", Recorder.Num total);
      ]

let fault_event ?value t ~node ~now name =
  let args = match value with None -> [] | Some v -> [ ("value", Recorder.Num v) ] in
  Recorder.instant t.recorder ~ts:now ~track:(thread_track node) name ~args

let engine_sample t ~now ~heap ~executed =
  let track = engine_track t in
  Recorder.counter t.recorder ~ts:now ~track "heap" (Float.of_int heap);
  Recorder.counter t.recorder ~ts:now ~track "events" (Float.of_int executed)

let finish t ~now =
  Array.iteri
    (fun node st ->
      (match st.handler with
      | H_idle -> ()
      | H_request ->
        st.handler <- H_idle;
        Recorder.end_span t.recorder ~ts:now ~track:(handler_track node) span_rq
      | H_reply ->
        st.handler <- H_idle;
        Recorder.end_span t.recorder ~ts:now ~track:(handler_track node) span_ry);
      if st.thread_open then begin
        st.thread_open <- false;
        Recorder.end_span t.recorder ~ts:now ~track:(thread_track node) span_w
      end)
    t.states
