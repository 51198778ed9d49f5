(* Deterministic computation budgets. Fuel is a count of solver iterations,
   simulator events, or root-finder evaluations — program progress, not wall
   time — so exhausting it is a pure function of the inputs and the result
   of a budgeted run is byte-identical at any --jobs setting. Wall-clock
   supervision belongs in bin/ (a watchdog flipping a Cancel.t), never
   here: the obs-no-wallclock lint fences lib/ for exactly this reason.

   The fuel counter is an Atomic.t so one budget may be shared by tasks on
   different domains (a global event budget for a whole sweep); determinism
   then only holds per run shape, so the deterministic artifacts hand each
   task its own budget instead. *)

type stop_reason =
  | Cancelled
  | Fuel_exhausted of { fuel : int }

let reason_to_string = function
  | Cancelled -> "cancelled"
  | Fuel_exhausted { fuel } -> Printf.sprintf "fuel exhausted (budget %d)" fuel

type t = {
  fuel : int Atomic.t option;  (* [None]: unlimited fuel, cancellation only *)
  initial : int;
  cancel : Cancel.t option;
}

let create ?fuel ?cancel () =
  (match fuel with
  | Some f when f < 0 -> invalid_arg "Budget.create: negative fuel"
  | _ -> ());
  { fuel = Option.map Atomic.make fuel; initial = Option.value fuel ~default:0; cancel }

let remaining t = Option.map Atomic.get t.fuel
[@@lint.allow
  "test-only-export"
    "perfbench/workloads.ml uses it; perfbench/ is linted apart until ROADMAP item 1"]

let check t =
  match t.cancel with
  | Some c when Cancel.cancelled c -> Some Cancelled
  | _ -> (
    match t.fuel with
    | None -> None
    | Some fuel ->
      (* fetch_and_add returns the pre-decrement value; restore the floor so
         repeated checks after exhaustion stay at zero and keep reporting
         [Fuel_exhausted] instead of wrapping. *)
      if Atomic.fetch_and_add fuel (-1) <= 0 then begin
        Atomic.incr fuel;
        Some (Fuel_exhausted { fuel = t.initial })
      end
      else None)

exception Stop of stop_reason

let check_exn = function
  | None -> ()
  | Some t -> ( match check t with None -> () | Some reason -> raise (Stop reason))
