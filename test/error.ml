(* Error metrics for model-versus-measurement validation.

   The paper's accuracy claims are phrased as signed relative errors
   ("LoPC overestimates total runtime by 6% in the worst case", "the
   contention-free model under predicts total run time by 37%"). These
   helpers compute exactly those quantities for single points and sweeps. *)

(* A zero measured value yields ±infinity (or nan at 0/0), following IEEE
   division, so one degenerate measurement flags itself instead of tearing
   down a whole validation table with an exception. *)
let relative ~predicted ~measured = (predicted -. measured) /. measured
[@@lint.allow
  "unguarded-division"
    "IEEE division is the contract: a zero measured value yields +/-infinity (or nan \
     at 0/0) so one degenerate measurement flags itself instead of raising"]

let percent ~predicted ~measured = 100. *. relative ~predicted ~measured

let absolute ~predicted ~measured = predicted -. measured

type summary = {
  max_abs_percent : float;
  mean_abs_percent : float;
  worst_index : int;
  bias_percent : float;
  skipped : int;
}

let summarize ~predicted ~measured =
  let n = Array.length predicted in
  if n = 0 then invalid_arg "Error.summarize: empty series";
  if Array.length measured <> n then invalid_arg "Error.summarize: length mismatch";
  let max_abs = ref 0. and worst = ref (-1) in
  let abs_sum = ref 0. and signed_sum = ref 0. in
  let used = ref 0 in
  for i = 0 to n - 1 do
    let e = percent ~predicted:predicted.(i) ~measured:measured.(i) in
    if Float.is_finite e then begin
      incr used;
      let a = Float.abs e in
      if a > !max_abs || !worst < 0 then begin
        max_abs := a;
        worst := i
      end;
      abs_sum := !abs_sum +. a;
      signed_sum := !signed_sum +. e
    end
  done;
  if !used = 0 then
    {
      max_abs_percent = Float.nan;
      mean_abs_percent = Float.nan;
      worst_index = -1;
      bias_percent = Float.nan;
      skipped = n;
    }
  else begin
    let nf = Float.of_int !used in
    {
      max_abs_percent = !max_abs;
      mean_abs_percent = !abs_sum /. nf;
      worst_index = !worst;
      bias_percent = !signed_sum /. nf;
      skipped = n - !used;
    }
  end

let pp_summary ppf s =
  Format.fprintf ppf "max |err| %.1f%% (at index %d), MAPE %.1f%%, bias %+.1f%%"
    s.max_abs_percent s.worst_index s.mean_abs_percent s.bias_percent;
  if s.skipped > 0 then Format.fprintf ppf " [%d pair(s) skipped]" s.skipped
