let check_alpha alpha =
  if not (alpha > 0.) then invalid_arg "Logit: alpha must be > 0"

let check_s0 s0 =
  if not (s0 > 0. && s0 < 1.) then invalid_arg "Logit: s0 must be in (0, 1)"

let check_lengths valuations prices =
  if Array.length valuations <> Array.length prices then
    invalid_arg "Logit: array length mismatch";
  if Array.length valuations = 0 then invalid_arg "Logit: empty flow set"

type fit = { valuations : float array; k : float; s0 : float; p0 : float }

let fit_valuations ~alpha ~p0 ~s0 ~demands =
  check_alpha alpha;
  check_s0 s0;
  if Array.length demands = 0 then invalid_arg "Logit.fit_valuations: no demands";
  let total = Numerics.Stats.sum demands in
  if not (total > 0.) then invalid_arg "Logit.fit_valuations: zero total demand";
  let valuations =
    Array.map
      (fun q ->
        if not (q > 0.) then
          invalid_arg "Logit.fit_valuations: demands must be positive";
        let share = q *. (1. -. s0) /. total in
        ((log share -. log s0) /. alpha) +. p0)
      demands
  in
  { valuations; k = total /. (1. -. s0); s0; p0 }

let gamma ~alpha ~p0 ~s0 ~valuations ~rel_costs =
  check_alpha alpha;
  check_s0 s0;
  check_lengths valuations rel_costs;
  let margin = 1. /. (alpha *. s0) in
  if p0 <= margin then
    invalid_arg
      (Printf.sprintf
         "Logit.gamma: p0 = %g <= 1/(alpha s0) = %g implies negative costs" p0
         margin);
  (* w_i = e^(alpha (v_i - p0)) = s_i / s0: bounded, no overflow. *)
  let w = Array.map (fun v -> exp (alpha *. (v -. p0))) valuations in
  let wf = Array.map2 (fun wi f -> wi *. f) w rel_costs in
  (p0 -. margin) *. Numerics.Stats.sum w /. Numerics.Stats.sum wf

(* The choice exponents [alpha (v_i - p_i)] followed by the outside
   option's exponent 0, in one array: [logsumexp] over it is [ln Z], and
   the first [n] slots give the per-flow shares. The kernels below fill
   and read it with plain loops (no flambda: a closure per element would
   box every float). *)
let exponents ~alpha ~valuations ~prices =
  check_alpha alpha;
  check_lengths valuations prices;
  let n = Array.length valuations in
  let e = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do
    e.(i) <- alpha *. (valuations.(i) -. prices.(i))
  done;
  e

(* [scale * e^(e_i - ln_z)] for the [n] flow slots of [e]. *)
let scaled_shares e ~ln_z ~scale =
  let n = Array.length e - 1 in
  let s = Array.make n 0. in
  for i = 0 to n - 1 do
    s.(i) <- scale *. exp (e.(i) -. ln_z)
  done;
  s

let shares ~alpha ~valuations ~prices =
  let e = exponents ~alpha ~valuations ~prices in
  let ln_z = Numerics.Stats.logsumexp e in
  (* [1. *. x] is exactly [x]. *)
  (scaled_shares e ~ln_z ~scale:1., exp (-.ln_z))

let demands_and_surplus ~alpha ~k ~valuations ~prices =
  let e = exponents ~alpha ~valuations ~prices in
  let ln_z = Numerics.Stats.logsumexp e in
  (scaled_shares e ~ln_z ~scale:k, k /. alpha *. ln_z)

let demands_at ~alpha ~k ~valuations ~prices =
  fst (demands_and_surplus ~alpha ~k ~valuations ~prices)

let profit_at ~alpha ~k ~valuations ~costs ~prices =
  check_lengths valuations costs;
  let s, _ = shares ~alpha ~valuations ~prices in
  k *. Numerics.Stats.sum_init (Array.length s) (fun i -> s.(i) *. (prices.(i) -. costs.(i)))

let consumer_surplus ~alpha ~k ~valuations ~prices =
  k /. alpha *. Numerics.Stats.logsumexp (exponents ~alpha ~valuations ~prices)

let bundle_aggregate ~alpha ~valuations ~costs =
  check_alpha alpha;
  check_lengths valuations costs;
  (* One buffer: exponents [alpha v_i], then in place the cost terms
     [c_i e^(alpha v_i - ln_w)]. *)
  let n = Array.length valuations in
  let buf = Array.make n 0. in
  for i = 0 to n - 1 do
    buf.(i) <- alpha *. valuations.(i)
  done;
  let ln_w = Numerics.Stats.logsumexp buf in
  for i = 0 to n - 1 do
    buf.(i) <- exp (buf.(i) -. ln_w) *. costs.(i)
  done;
  (ln_w /. alpha, Numerics.Stats.sum buf)

let ln_s ~alpha ~valuations ~costs =
  check_alpha alpha;
  check_lengths valuations costs;
  let n = Array.length valuations in
  let e = Array.make n 0. in
  for i = 0 to n - 1 do
    e.(i) <- alpha *. (valuations.(i) -. costs.(i))
  done;
  Numerics.Stats.logsumexp e

let optimal_margin ~alpha ~ln_s =
  check_alpha alpha;
  (* Solve the log form x + ln (x - 1) = ln_s, which stays well-scaled
     for arbitrarily large ln_s (the raw form's exp term swamps Newton).
     The root is bracketed by 1 + e^(ln_s - hi) < x < hi. *)
  let f x = x +. log (x -. 1.) -. ln_s in
  let df x = 1. +. (1. /. (x -. 1.)) in
  let hi = Float.max 2. (ln_s +. 2.) in
  let lo = 1. +. exp (ln_s -. hi) in
  if lo >= hi then hi
  else if f lo >= 0. then lo
  else Numerics.Solve.newton_bisect ~f ~df lo hi

type optimum = { prices : float array; x : float; profit_per_k : float }

let optimize ~alpha ~valuations ~costs =
  let ln_s_value = ln_s ~alpha ~valuations ~costs in
  let x = optimal_margin ~alpha ~ln_s:ln_s_value in
  let margin = x /. alpha in
  {
    prices = Array.map (fun c -> c +. margin) costs;
    x;
    profit_per_k = (x -. 1.) /. alpha;
  }
