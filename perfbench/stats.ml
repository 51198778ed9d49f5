(* Order statistics and pairwise comparison for benchmark samples. The
   order statistics are those of [Lopc_stats.Sample]. *)

module Sample = Lopc_stats.Sample

let median xs = Sample.median (Sample.of_list xs)

let quartiles xs =
  let s = Sample.of_list xs in
  (Sample.quantile s 0.25, Sample.quantile s 0.75)

(* Interquartile range as a share of the median. *)
let spread xs =
  let s = Sample.of_list xs in
  Sample.iqr s /. Float.abs (Sample.median s)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let string_of_better = function Lower -> "lower" | Higher -> "higher"

let improves better ~base x =
  match better with Lower -> x < base | Higher -> x > base

(* Share of index-aligned pairs (a.(i), b.(i)) in which [b] reads better;
   ties count for neither side. Pairs beyond the shorter list are
   ignored. *)
let win_rate better a b =
  let rec go wins pairs a b =
    match (a, b) with
    | x :: a, y :: b -> go (if improves better ~base:x y then wins + 1 else wins) (pairs + 1) a b
    | _ -> (wins, pairs)
  in
  match go 0 0 a b with
  | _, 0 -> invalid_arg "Stats.win_rate: no pairs"
  | wins, pairs -> Float.of_int wins /. Float.of_int pairs

type verdict = Improved | Within_bound | Regressed | Unresolved

let string_of_verdict = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Regressed -> "regressed past bound"
  | Unresolved -> "unresolved"

(* Change [b] against parent [a] for one (metric, workload) pair:
   - unresolved when either side's spread is wider than [bound], unless
     every run of [b] reads better than every run of [a];
   - regressed when [b]'s median is worse than [a]'s by more than [bound]
     (a share of [a]'s median);
   - improved when [b] wins at least nine tenths of the pairs and the
     medians differ by more than [a]'s interquartile range;
   - within bound otherwise. *)
let verdict better ~bound a b =
  let sa = Sample.of_list a and sb = Sample.of_list b in
  let ma = Sample.median sa and mb = Sample.median sb in
  let best, worst =
    match better with
    | Lower -> (Sample.min, Sample.max)
    | Higher -> (Sample.max, Sample.min)
  in
  let dominates = improves better ~base:(best sa) (worst sb) in
  let worse_by =
    (match better with Lower -> mb -. ma | Higher -> ma -. mb) /. Float.abs ma
  in
  if (spread a > bound || spread b > bound) && not dominates then Unresolved
  else if worse_by > bound then Regressed
  else if
    win_rate better a b >= 0.9 && Float.abs (mb -. ma) > Sample.iqr sa && improves better ~base:ma mb
  then Improved
  else Within_bound
