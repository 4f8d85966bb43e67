(* Order statistics over raw samples.

   Percentiles use the nearest-rank rule on the sorted samples, so a
   reported p99 is a latency some request actually had. A failed
   request enters as [infinity]: slower than every sample. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of the samples
   at or below it. [nan] on an empty sample. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float n

(* The three cut points of Python's [statistics.quantiles(data, n=4)]
   (its default "exclusive" method), so the spreads printed here are
   the ones the acceptance rule computes. Needs two samples. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  Array.init 3 (fun i ->
      let i = i + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float (4 - delta)) +. (s.(j) *. float delta)) /. 4.)

(* Interquartile distance as a share of the median. *)
let spread a =
  let q = quartiles a in
  (q.(2) -. q.(0)) /. Float.abs (median a)
