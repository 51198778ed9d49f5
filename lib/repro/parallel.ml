(* Task pool on stock OCaml 5 domains (no domainslib: the only primitives
   used are Domain, Atomic, Mutex and Condition).

   A batch is an index-ordered array of independent thunks. Each batch
   carries one shared atomic cursor; every worker, the submitter included,
   claims the next index with a fetch-and-add until the cursor passes the
   end. A task is a millisecond-scale sweep point and a fetch-and-add costs
   tens of nanoseconds, so the one contended counter never queues (the
   LoPC rule of thumb: contention matters only when the server's occupancy
   is comparable to the work between visits).

   Determinism: results are written to slot [i] for task [i] and the
   submitter re-raises the lowest-indexed task exception, so the outcome
   is a pure function of the task array — never of the schedule. *)

type batch = {
  id : int;
  run_task : int -> unit;  (* must not raise; stores its own result *)
  next : int Atomic.t;     (* the next unclaimed task index *)
  completed : int Atomic.t;
  total : int;
}

type t = {
  m : Mutex.t;
  work : Condition.t;      (* a new batch is installed, or shutdown *)
  finished : Condition.t;  (* the last task of a batch completed *)
  mutable current : batch option;
  mutable next_id : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* --- per-batch work loop ------------------------------------------------- *)

let signal_finished t =
  Mutex.lock t.m;
  Condition.broadcast t.finished;
  Mutex.unlock t.m

let rec drain t b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.total then begin
    b.run_task i;
    (* The worker completing the final task wakes the submitter. *)
    if Atomic.fetch_and_add b.completed 1 = b.total - 1 then signal_finished t;
    drain t b
  end

(* --- worker domains ------------------------------------------------------ *)

let rec worker_loop t last_id =
  Mutex.lock t.m;
  let rec await () =
    if t.stop then None
    else
      match t.current with
      | Some b when b.id <> last_id -> Some b
      | Some _ | None ->
        Condition.wait t.work t.m;
        await ()
  in
  let next = await () in
  Mutex.unlock t.m;
  match next with
  | None -> ()
  | Some b ->
    drain t b;
    worker_loop t b.id

let shutdown t =
  Mutex.lock t.m;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work
  end;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join ds

(* The runtime caps live domains (128 on OCaml 5.1) and [Domain.spawn]
   fails past it; the workers already spawned are stopped and joined
   before the failure is reported, so a refused pool leaks nothing. *)
let create ?jobs:(n = Domain.recommended_domain_count ()) () =
  if n < 1 then invalid_arg "Parallel.create: jobs must be at least 1";
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      current = None;
      next_id = 1;
      stop = false;
      domains = [];
    }
  in
  let rec spawn k acc =
    if k = n then t.domains <- List.rev acc
    else
      match Domain.spawn (fun () -> worker_loop t 0) with
      | d -> spawn (k + 1) (d :: acc)
      | exception Failure msg ->
        t.domains <- acc;
        shutdown t;
        invalid_arg
          (Printf.sprintf "Parallel.create: cannot start %d jobs, only %d (%s)" n k msg)
  in
  spawn 1 [];
  t

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- batch submission ---------------------------------------------------- *)

let collect results =
  (* Deterministic error policy: the lowest-indexed failure wins. The
     re-raise keeps the backtrace captured at the original raise site in
     the worker, not a fresh one from this merge point. *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false (* completed = total *))
    results

let run t tasks =
  let n = Array.length tasks in
  let results = Array.make n None in
  let run_task i =
    results.(i) <-
      Some
        (try Ok (tasks.(i) ())
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Error (e, bt))
  in
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Parallel.run: pool is shut down"
  end;
  let b =
    { id = t.next_id; run_task; next = Atomic.make 0; completed = Atomic.make 0; total = n }
  in
  t.next_id <- t.next_id + 1;
  t.current <- Some b;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  (* The submitter drains too, so a jobs-1 pool (no domains) runs every
     task here, in index order: the serial reference path. *)
  drain t b;
  Mutex.lock t.m;
  while Atomic.get b.completed < b.total do
    Condition.wait t.finished t.m
  done;
  t.current <- None;
  Mutex.unlock t.m;
  collect results
