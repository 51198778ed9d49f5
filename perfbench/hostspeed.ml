(* Host-speed calibration.

   On a shared host, wall-clock time drifts with what other tenants do to
   the memory hierarchy. On a 2-vCPU VM, the same op's 10-second medians
   spread 24-35% (quartile distance over median) over four minutes. CPU
   time equalled wall time, and a pure arithmetic loop spread only 6%,
   while random updates to a 4 MB array spread 35%.

   The benchmark runs [kernel], those random updates, after every op and
   every set-up. It reports times rescaled to a nominal host, one on which
   the kernel takes [nominal] seconds: time × (nominal / kernel)^[exponent].
   Ops mostly slow down less than the kernel does; README.md has the fit.

   A sample runs the kernel on two domains at once, one per vCPU, and
   averages them: a single-domain op migrates between the vCPUs, and the
   pooled workloads use both. Each domain runs the kernel once untimed and
   then takes the fastest of three timed runs. The untimed run leaves the
   caches and TLB holding the kernel's own table, whatever the op left
   there, so the op under test cannot move the timed runs: after random
   updates to 32 MB, a first run was 10% slower than after a light op, and
   a second run under 1% slower. The kernel allocates nothing, so the op's
   heap cannot move it either. *)

let nominal = 0.005
let exponent = 0.7
let tables = Array.init 2 (fun _ -> Array.make (1 lsl 19) 0.)

let kernel table =
  let state = ref 12345 in
  for _ = 1 to 2_000_000 do
    state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
    let j = !state land ((1 lsl 19) - 1) in
    table.(j) <- table.(j) +. 1.
  done

let fastest_run table =
  kernel table;
  let timed () =
    let t0 = Trace.now () in
    kernel table;
    Trace.now () -. t0
  in
  List.fold_left Float.min Float.infinity (List.init 3 (fun _ -> timed ()))

(* Seconds one run of the kernel takes now. No workload keeps a pool
   between ops, and the spawned domain is joined before this returns, so a
   run never has more than two domains. *)
let sample () =
  let other = Domain.spawn (fun () -> fastest_run tables.(1)) in
  let mine = fastest_run tables.(0) in
  (mine +. Domain.join other) /. 2.

(* [seconds] measured while the kernel took [kernel_s], on the nominal
   host. *)
let rescale ~kernel_s seconds = seconds *. ((nominal /. kernel_s) ** exponent)
