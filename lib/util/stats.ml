type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  p95 : float;
  max : float;
}

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
    acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let reject_nan ctx a =
  if Array.exists Float.is_nan a then invalid_arg (ctx ^ ": NaN in sample")

let sorted_copy ctx a =
  reject_nan ctx a;
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  sorted

(* [sorted] must be NaN-free and ascending; [p] in [0, 100]. *)
let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]";
  percentile_of_sorted (sorted_copy "Stats.percentile" a) p

let median a = percentile a 50.0

let summarize a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let sorted = sorted_copy "Stats.summarize" a in
  {
    n;
    mean = mean a;
    stddev = stddev a;
    min = sorted.(0);
    p25 = percentile_of_sorted sorted 25.0;
    median = percentile_of_sorted sorted 50.0;
    p75 = percentile_of_sorted sorted 75.0;
    p95 = percentile_of_sorted sorted 95.0;
    max = sorted.(n - 1);
  }

type fit = { slope : float; intercept : float; r2 : float }

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need >= 2 points";
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 then invalid_arg "Stats.linear_fit: constant xs";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if !syy = 0.0 then 1.0 else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }

let loglog_fit xs ys =
  let check a =
    Array.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.loglog_fit: non-positive value") a
  in
  check xs;
  check ys;
  linear_fit (Array.map log xs) (Array.map log ys)

let geometric_mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.geometric_mean: empty sample";
  Array.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive value") a;
  exp (Array.fold_left (fun s x -> s +. log x) 0.0 a /. float_of_int n)

let mean_confidence95 a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mean_confidence95: empty sample";
  let m = mean a in
  let se = stddev a /. sqrt (float_of_int n) in
  (m, 1.96 *. se)
