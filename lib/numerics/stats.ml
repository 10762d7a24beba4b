let sum xs =
  (* Kahan compensation: dispersion statistics feed model fitting, so we
     keep the sums exact to the last few ulps even for millions of
     records. A plain loop rather than [Array.iter]: without flambda the
     closure would box every element and both accumulators. *)
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let y = xs.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let sum_init n f =
  (* Same Kahan recurrence as [sum], without materializing the array:
     bit-identical to [sum (Array.init n f)] for a pure [f]. *)
  let total = ref 0. and comp = ref 0. in
  for i = 0 to n - 1 do
    let x = f i in
    let y = x -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let sum_products xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.sum_products: length mismatch";
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let y = (xs.(i) *. ys.(i)) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  require_nonempty "Stats.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "Stats.variance" xs;
  let m = mean xs in
  let deviations = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
  sum deviations /. float_of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

let cv xs =
  let m = mean xs in
  if m = 0. then invalid_arg "Stats.cv: zero mean";
  stddev xs /. m

let weighted_mean ~values ~weights =
  if Array.length values <> Array.length weights then
    invalid_arg "Stats.weighted_mean: length mismatch";
  require_nonempty "Stats.weighted_mean" values;
  let total_weight = sum weights in
  if total_weight <= 0. then
    invalid_arg "Stats.weighted_mean: non-positive total weight";
  let weighted = Array.map2 ( *. ) values weights in
  sum weighted /. total_weight

(* [Stdlib.min]/[max] folds, written as typed loops: [Stdlib.min a b]
   is [if a <= b then a else b] under polymorphic compare, which orders
   floats exactly like the typed [<=]/[>=] here (NaN compares false,
   [-0. = 0.]), so every result is bit-identical — without the C call
   and the boxing per element. *)
let min xs =
  require_nonempty "Stats.min" xs;
  let m = ref xs.(0) in
  for i = 1 to Array.length xs - 1 do
    let x = xs.(i) in
    if not (!m <= x) then m := x
  done;
  !m

let max xs =
  require_nonempty "Stats.max" xs;
  let m = ref xs.(0) in
  for i = 1 to Array.length xs - 1 do
    let x = xs.(i) in
    if not (!m >= x) then m := x
  done;
  !m

let quantile xs q =
  require_nonempty "Stats.quantile" xs;
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median xs = quantile xs 0.5

type summary = {
  n : int;
  mean : float;
  stddev : float;
  cv : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize xs =
  require_nonempty "Stats.summarize" xs;
  let m = mean xs in
  let sd = stddev xs in
  {
    n = Array.length xs;
    mean = m;
    stddev = sd;
    cv = (if m = 0. then Float.nan else sd /. m);
    min = min xs;
    max = max xs;
    p50 = quantile xs 0.5;
    p90 = quantile xs 0.9;
    p99 = quantile xs 0.99;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.4g sd=%.4g cv=%.3f min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g"
    s.n s.mean s.stddev s.cv s.min s.p50 s.p90 s.p99 s.max

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  require_nonempty "Stats.histogram" xs;
  let lo = min xs and hi = max xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
      counts.(i) <- counts.(i) + 1)
    xs;
  Array.mapi
    (fun i c ->
      let b_lo = lo +. (float_of_int i *. width) in
      (b_lo, b_lo +. width, c))
    counts

let logsumexp xs =
  if Array.length xs = 0 then Float.neg_infinity
  else
    let m = max xs in
    if m = Float.neg_infinity then Float.neg_infinity
    else begin
      (* [sum] of the shifted terms, fused: same addends, same order. *)
      let total = ref 0. and comp = ref 0. in
      for i = 0 to Array.length xs - 1 do
        let y = exp (xs.(i) -. m) -. !comp in
        let t = !total +. y in
        comp := t -. !total -. y;
        total := t
      done;
      m +. log !total
    end

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.pearson: length mismatch";
  if n < 2 then invalid_arg "Stats.pearson: need at least two points";
  let mx = mean xs and my = mean ys in
  let cov = ref 0. and vx = ref 0. and vy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    cov := !cov +. (dx *. dy);
    vx := !vx +. (dx *. dx);
    vy := !vy +. (dy *. dy)
  done;
  if !vx = 0. || !vy = 0. then invalid_arg "Stats.pearson: degenerate input";
  !cov /. sqrt (!vx *. !vy)
