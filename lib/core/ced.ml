let check_alpha alpha =
  if not (alpha > 1.) then invalid_arg "Ced: alpha must be > 1"

let check_price p = if not (p > 0.) then invalid_arg "Ced: price must be positive"

let demand ~alpha ~v p =
  check_alpha alpha;
  check_price p;
  (v /. p) ** alpha

let inverse_demand ~alpha ~v q =
  check_alpha alpha;
  if not (q > 0.) then invalid_arg "Ced.inverse_demand: quantity must be positive";
  v /. (q ** (1. /. alpha))

let flow_profit ~alpha ~v ~c p = demand ~alpha ~v p *. (p -. c)

let optimal_price ~alpha ~c =
  check_alpha alpha;
  if not (c > 0.) then invalid_arg "Ced.optimal_price: cost must be positive";
  alpha *. c /. (alpha -. 1.)

let potential_profit ~alpha ~v ~c =
  flow_profit ~alpha ~v ~c (optimal_price ~alpha ~c)

let check_bundle valuations costs =
  if Array.length valuations <> Array.length costs then
    invalid_arg "Ced: valuations/costs length mismatch";
  if Array.length valuations = 0 then invalid_arg "Ced: empty bundle"

let bundle_price_pow ~alpha ~pow_valuations ~costs =
  check_alpha alpha;
  check_bundle pow_valuations costs;
  alpha
  *. Numerics.Stats.sum_products costs pow_valuations
  /. ((alpha -. 1.) *. Numerics.Stats.sum pow_valuations)

let bundle_price ~alpha ~valuations ~costs =
  check_alpha alpha;
  bundle_price_pow ~alpha
    ~pow_valuations:(Array.map (fun v -> v ** alpha) valuations)
    ~costs

let bundle_profit ~alpha ~valuations ~costs ~price =
  check_bundle valuations costs;
  let profits =
    Array.map2 (fun v c -> flow_profit ~alpha ~v ~c price) valuations costs
  in
  Numerics.Stats.sum profits

let valuation_of_demand ~alpha ~p0 ~q =
  check_alpha alpha;
  check_price p0;
  if not (q > 0.) then invalid_arg "Ced.valuation_of_demand: demand must be positive";
  p0 *. (q ** (1. /. alpha))

let gamma ~alpha ~p0 ~valuations ~rel_costs =
  check_alpha alpha;
  check_price p0;
  check_bundle valuations rel_costs;
  let va = Array.map (fun v -> v ** alpha) valuations in
  let fva = Array.map2 (fun f w -> f *. w) rel_costs va in
  p0 *. (alpha -. 1.) *. Numerics.Stats.sum va /. (alpha *. Numerics.Stats.sum fva)

let surplus_of_demand ~alpha ~v ~q p =
  let exponent = 1. -. (1. /. alpha) in
  (v *. (q ** exponent) /. exponent) -. (p *. q)

let consumer_surplus ~alpha ~v p =
  surplus_of_demand ~alpha ~v ~q:(demand ~alpha ~v p) p
