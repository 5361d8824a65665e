(* Summary statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear-interpolated quantile on a sorted array (type 7, as numpy). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

let quartiles xs =
  let a = sorted xs in
  (quantile_sorted a 0.25, quantile_sorted a 0.75)

(* Tail percentiles are named in tenths of a percent so that rank
   arithmetic stays in integers: 990 is p99. *)
let candidates = [ 999; 990; 950; 900; 750; 500 ]

let percentile_name p10 =
  if p10 mod 10 = 0 then Printf.sprintf "p%d" (p10 / 10)
  else Printf.sprintf "p%d.%d" (p10 / 10) (p10 mod 10)

(* Nearest rank (1-based) of the p-th percentile among [n] samples. *)
let rank ~n p10 = max 1 ((p10 * n + 999) / 1000)

(* Samples strictly above the nearest-rank p-th percentile. *)
let beyond ~n p10 = n - rank ~n p10

(* The highest candidate percentile with at least [min_beyond] (10)
   samples beyond it, or [None] when even the median has fewer. *)
let tail_percentile ?(min_beyond = 10) n =
  List.find_opt (fun p10 -> beyond ~n p10 >= min_beyond) candidates

(* Nearest-rank percentile of unsorted samples. *)
let percentile xs p10 =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (rank ~n p10 - 1))
