(* Order statistics for the benchmark's reports.

   A tail percentile is only quoted when at least [min_beyond] samples
   lie beyond it; with fewer samples the highest percentile that has
   that many is reported instead, under its own label, so a "p99" over
   a few hundred samples never masquerades as one. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method:
   q = 0 is the minimum, q = 1 the maximum). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

type tail = {
  wanted : float;  (* the percentile asked for, e.g. 0.99 *)
  quoted : float;  (* the percentile actually reported *)
  value : float;
  samples : int;
}

(* The highest percentile <= [wanted] with [min_beyond] samples past it;
   never below the median, which is always quoted. *)
let tail_percentile ~wanted xs =
  let a = sorted xs in
  let n = Array.length a in
  let supported =
    if n = 0 then 0.5 else 1.0 -. (float_of_int min_beyond /. float_of_int n)
  in
  let quoted = Float.max 0.5 (Float.min wanted supported) in
  let value = if n = 0 then 0.0 else quantile_sorted a quoted in
  { wanted; quoted; value; samples = n }

let relabelled t = t.quoted < t.wanted

let label t =
  let pct p = Printf.sprintf "p%g" (100.0 *. p) in
  if relabelled t then
    Printf.sprintf "%s relabelled %s (n=%d, fewer than %d beyond %s)" (pct t.wanted)
      (pct t.quoted) t.samples min_beyond (pct t.wanted)
  else Printf.sprintf "%s (n=%d)" (pct t.quoted) t.samples

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let ratio num den = if den = 0.0 then 0.0 else num /. den
