(* Work-stealing task pool on stock OCaml 5 domains (no domainslib: the
   only primitives used are Domain, Atomic, Mutex and Condition).

   A batch is an index-ordered array of independent thunks. The index
   space is split into one contiguous range per worker; each range is a
   tiny mutex-protected deque of indices: the owner pops from the front,
   thieves remove the upper half from the back. Stolen spans are installed
   in the thief's own (empty) range, so they remain visible to further
   steals and imbalance cascades instead of serialising.

   Determinism: results are written to slot [i] for task [i] and the
   submitter re-raises the lowest-indexed task exception, so the outcome
   is a pure function of the task array — never of the schedule. *)

type range = { rm : Mutex.t; mutable lo : int; mutable hi : int }

type batch = {
  id : int;
  run_task : int -> unit;  (* must not raise; stores its own result *)
  ranges : range array;
  completed : int Atomic.t;
  total : int;
}

type t = {
  n_jobs : int;
  m : Mutex.t;
  work : Condition.t;      (* a new batch is installed, or shutdown *)
  finished : Condition.t;  (* the last task of a batch completed *)
  mutable current : batch option;
  mutable next_id : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* --- per-batch work loop ------------------------------------------------- *)

let pop_own (r : range) =
  Mutex.lock r.rm;
  let res =
    if r.lo < r.hi then begin
      let i = r.lo in
      r.lo <- i + 1;
      Some i
    end
    else None
  in
  Mutex.unlock r.rm;
  res

(* Remove the upper half (at least one index) of a victim's range. *)
let steal_half (r : range) =
  Mutex.lock r.rm;
  let res =
    let avail = r.hi - r.lo in
    if avail <= 0 then None
    else begin
      let k = (avail + 1) / 2 in
      let hi = r.hi in
      r.hi <- hi - k;
      Some (hi - k, hi)
    end
  in
  Mutex.unlock r.rm;
  res

(* Only the owner ever grows its range, and only while it is empty, so
   installing a stolen span cannot clobber live indices. *)
let install (r : range) (lo, hi) =
  Mutex.lock r.rm;
  r.lo <- lo;
  r.hi <- hi;
  Mutex.unlock r.rm

let signal_finished t =
  Mutex.lock t.m;
  Condition.broadcast t.finished;
  Mutex.unlock t.m

let exec t b i =
  b.run_task i;
  (* The worker completing the final task wakes the submitter. *)
  if Atomic.fetch_and_add b.completed 1 = b.total - 1 then signal_finished t

(* Pick the victim with the most remaining work (racy size reads are only
   a heuristic; the steal itself re-checks under the victim's lock). *)
let best_victim b w =
  let best = ref (-1) and best_avail = ref 0 in
  Array.iteri
    (fun v (r : range) ->
      if v <> w then begin
        let avail = r.hi - r.lo in
        if avail > !best_avail then begin
          best := v;
          best_avail := avail
        end
      end)
    b.ranges;
  if !best < 0 then None else Some !best

let rec worker_batch t w b =
  match pop_own b.ranges.(w) with
  | Some i ->
    exec t b i;
    worker_batch t w b
  | None -> try_steal t w b 0

and try_steal t w b empty_scans =
  match best_victim b w with
  | Some v -> begin
    match steal_half b.ranges.(v) with
    | Some span ->
      install b.ranges.(w) span;
      worker_batch t w b
    | None -> try_steal t w b 0  (* victim drained under us; rescan *)
  end
  | None ->
    (* Every range looked empty. A steal in flight (removed from the victim,
       not yet installed by the thief) is invisible for a moment, so scan
       once more before parking for the rest of the batch. *)
    if empty_scans < 1 then begin
      Domain.cpu_relax ();
      try_steal t w b (empty_scans + 1)
    end

(* --- worker domains ------------------------------------------------------ *)

let rec worker_loop t w last_id =
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
    worker_batch t w b;
    worker_loop t w b.id

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
      n_jobs = n;
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
      match Domain.spawn (fun () -> worker_loop t k 0) with
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
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let run_task i =
      results.(i) <-
        Some
          (try Ok (tasks.(i) ())
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             Error (e, bt))
    in
    if t.n_jobs = 1 then
      (* Serial reference path: inline, in index order, no domains. *)
      for i = 0 to n - 1 do
        run_task i
      done
    else begin
      let per w = w * n / t.n_jobs in
      let b =
        {
          id = 0;  (* assigned under the lock below *)
          run_task;
          ranges =
            Array.init t.n_jobs (fun w ->
                { rm = Mutex.create (); lo = per w; hi = per (w + 1) });
          completed = Atomic.make 0;
          total = n;
        }
      in
      Mutex.lock t.m;
      if t.stop then begin
        Mutex.unlock t.m;
        invalid_arg "Parallel.run: pool is shut down"
      end;
      let b = { b with id = t.next_id } in
      t.next_id <- t.next_id + 1;
      t.current <- Some b;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      (* The submitter is worker 0. *)
      worker_batch t 0 b;
      Mutex.lock t.m;
      while Atomic.get b.completed < b.total do
        Condition.wait t.finished t.m
      done;
      t.current <- None;
      Mutex.unlock t.m
    end;
    collect results
  end
