type outcome = {
  bundles : Bundle.t;
  bundle_prices : float array;
  flow_prices : float array;
  flow_demands : float array;
  profit : float;
  revenue : float;
  delivery_cost : float;
  consumer_surplus : float;
}

let welfare o = o.profit +. o.consumer_surplus

let flow_prices_of_bundle_prices market bundles prices =
  let n = Market.n_flows market in
  let owner = Bundle.member_of bundles ~n_flows:n in
  let flow_prices = Array.make n 0. in
  for i = 0 to n - 1 do
    flow_prices.(i) <- prices.(owner.(i))
  done;
  flow_prices

(* Assemble an outcome from per-flow prices under either demand model.
   The aggregate statistics run through [Stats.sum_products] /
   [Stats.sum_init] — one pass per statistic, no temporaries, and each
   Kahan accumulator sees the same addend sequence as the materialized
   version, so the totals are bit-identical (the goldens pin this). The
   per-flow arrays are filled by loops: without flambda, [Array.init]
   with a float closure boxes every element. *)
let outcome_at market bundles bundle_prices =
  let { Market.alpha; valuations; costs; k; spec; _ } = market in
  let flow_prices = flow_prices_of_bundle_prices market bundles bundle_prices in
  let n = Market.n_flows market in
  let assemble ~flow_demands ~consumer_surplus =
    let revenue = Numerics.Stats.sum_products flow_prices flow_demands in
    let delivery_cost = Numerics.Stats.sum_products costs flow_demands in
    {
      bundles;
      bundle_prices;
      flow_prices;
      flow_demands;
      profit = revenue -. delivery_cost;
      revenue;
      delivery_cost;
      consumer_surplus;
    }
  in
  match spec with
  | Market.Ced ->
      let flow_demands = Array.make n 0. in
      for i = 0 to n - 1 do
        flow_demands.(i) <- Ced.demand ~alpha ~v:valuations.(i) flow_prices.(i)
      done;
      (* [Ced.consumer_surplus] at the demand just computed: one power
         per flow fewer, same bits. *)
      assemble ~flow_demands
        ~consumer_surplus:
          (Numerics.Stats.sum_init n (fun i ->
               Ced.surplus_of_demand ~alpha ~v:valuations.(i) ~q:flow_demands.(i)
                 flow_prices.(i)))
  | Market.Linear _ ->
      let b = Market.linear_b market in
      let flow_demands = Array.make n 0. in
      for i = 0 to n - 1 do
        flow_demands.(i) <- Lin.demand ~a:valuations.(i) ~b:b.(i) flow_prices.(i)
      done;
      assemble ~flow_demands
        ~consumer_surplus:
          (Numerics.Stats.sum_init n (fun i ->
               Lin.consumer_surplus ~a:valuations.(i) ~b:b.(i) flow_prices.(i)))
  | Market.Logit _ ->
      let flow_demands, consumer_surplus =
        Logit.demands_and_surplus ~alpha ~k ~valuations ~prices:flow_prices
      in
      assemble ~flow_demands ~consumer_surplus

let optimal_bundle_prices market bundles =
  let { Market.alpha; valuations; costs; spec; _ } = market in
  let member_cs = Bundle.gather bundles costs in
  match spec with
  | Market.Ced ->
      (* Gather the memoized [v^alpha] directly: no power per call, and
         the per-bundle price sums run over the same values in the same
         order as [Ced.bundle_price] on the raw valuations. *)
      let member_pva = Bundle.gather bundles (Market.pow_valuations market) in
      Array.init (Bundle.count bundles) (fun b ->
          Ced.bundle_price_pow ~alpha ~pow_valuations:member_pva.(b)
            ~costs:member_cs.(b))
  | Market.Linear _ ->
      let member_vs = Bundle.gather bundles valuations in
      let member_bs = Bundle.gather bundles (Market.linear_b market) in
      Array.init (Bundle.count bundles) (fun g ->
          let bs = member_bs.(g) and cs = member_cs.(g) in
          let a_sum = Numerics.Stats.sum member_vs.(g) in
          let b_sum = Numerics.Stats.sum bs in
          let bc_sum = Numerics.Stats.sum_products bs cs in
          Lin.bundle_price ~a_sum ~b_sum ~bc_sum)
  | Market.Logit _ ->
      let member_vs = Bundle.gather bundles valuations in
      let count = Bundle.count bundles in
      let bundle_vs = Array.make count 0. in
      let bundle_cs = Array.make count 0. in
      for b = 0 to count - 1 do
        let v, c =
          Logit.bundle_aggregate ~alpha ~valuations:member_vs.(b)
            ~costs:member_cs.(b)
        in
        bundle_vs.(b) <- v;
        bundle_cs.(b) <- c
      done;
      let { Logit.prices; _ } = Logit.optimize ~alpha ~valuations:bundle_vs ~costs:bundle_cs in
      prices

let evaluate market bundles =
  outcome_at market bundles (optimal_bundle_prices market bundles)

let evaluate_at_prices market bundles prices =
  if Array.length prices <> Bundle.count bundles then
    invalid_arg "Pricing.evaluate_at_prices: one price per bundle required";
  outcome_at market bundles prices

let blended market = evaluate market (Bundle.all_in_one ~n_flows:(Market.n_flows market))

let max_profit market =
  let { Market.alpha; valuations; costs; k; spec; _ } = market in
  match spec with
  | Market.Ced | Market.Linear _ ->
      (* Exactly the per-flow potential-profit array the strategies use;
         share the market's memoized copy instead of recomputing it. *)
      Numerics.Stats.sum (Market.potential_profits market)
  | Market.Logit _ ->
      let { Logit.profit_per_k; _ } = Logit.optimize ~alpha ~valuations ~costs in
      k *. profit_per_k

let original_profit market = (blended market).profit
