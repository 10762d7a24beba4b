(* Reference-equivalence properties for the allocation-free hot paths.

   Every fast path in the pricing kernels keeps a simple reference here:
   the closure-per-element formulation it replaced ([Array.iter],
   [Array.map2], [Array.append], [fold_left Stdlib.min/max], one capture
   context per (market, bundle count), a fresh sort per call). Each
   property requires the fast path to agree with its reference bit for
   bit — not within a tolerance — because the goldens and the posted
   tiers are pinned byte for byte. The one exception is the payload of a
   NaN: when both operands of a commutative [+.]/[*.] are NaN, x86
   returns the first one, and which operand comes first is the register
   allocator's choice, so boxed and unboxed code may propagate different
   NaNs. Any two NaNs therefore compare equal here ([Report.cell_f]
   prints every NaN as "nan"); every other value, [-0.] and the
   infinities included, must match bit for bit. *)
open Tiered

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let same_array a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* --- references -------------------------------------------------------- *)

let ref_sum xs =
  let total = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let ref_min xs = Array.fold_left Stdlib.min xs.(0) xs
let ref_max xs = Array.fold_left Stdlib.max xs.(0) xs

let ref_logsumexp xs =
  if Array.length xs = 0 then Float.neg_infinity
  else
    let m = ref_max xs in
    if Float.equal m Float.neg_infinity then Float.neg_infinity
    else m +. log (ref_sum (Array.map (fun x -> exp (x -. m)) xs))

let ref_exponents ~alpha ~valuations ~prices =
  Array.map2 (fun v p -> alpha *. (v -. p)) valuations prices

let ref_shares ~alpha ~valuations ~prices =
  let exponents = ref_exponents ~alpha ~valuations ~prices in
  let ln_z = ref_logsumexp (Array.append exponents [| 0. |]) in
  (Array.map (fun x -> exp (x -. ln_z)) exponents, exp (-.ln_z))

let ref_demands_at ~alpha ~k ~valuations ~prices =
  Array.map (fun si -> k *. si) (fst (ref_shares ~alpha ~valuations ~prices))

let ref_consumer_surplus ~alpha ~k ~valuations ~prices =
  let exponents = ref_exponents ~alpha ~valuations ~prices in
  k /. alpha *. ref_logsumexp (Array.append exponents [| 0. |])

let ref_profit_at ~alpha ~k ~valuations ~costs ~prices =
  let s, _ = ref_shares ~alpha ~valuations ~prices in
  k *. ref_sum (Array.init (Array.length s) (fun i -> s.(i) *. (prices.(i) -. costs.(i))))

let ref_bundle_aggregate ~alpha ~valuations ~costs =
  let exponents = Array.map (fun v -> alpha *. v) valuations in
  let ln_w = ref_logsumexp exponents in
  let weights = Array.map (fun x -> exp (x -. ln_w)) exponents in
  (ln_w /. alpha, ref_sum (Array.map2 (fun u c -> u *. c) weights costs))

let ref_ln_s ~alpha ~valuations ~costs =
  ref_logsumexp (Array.map2 (fun v c -> alpha *. (v -. c)) valuations costs)

let ref_order_desc key =
  let idx = Array.init (Array.length key) Fun.id in
  Array.sort
    (fun i j ->
      match Float.compare key.(j) key.(i) with 0 -> Int.compare i j | c -> c)
    idx;
  idx

let ref_gather (t : Bundle.t) values =
  Array.map (fun group -> Array.map (fun i -> values.(i)) group) (t :> int array array)

(* The optimal bundle prices and the outcome at given bundle prices, as
   [Pricing] computed them with [Array.init] temporaries and one
   exponent pass per Logit statistic. *)
let ref_bundle_prices (m : Market.t) bundles =
  let alpha = m.Market.alpha in
  let member_cs = ref_gather bundles m.Market.costs in
  match m.Market.spec with
  | Market.Ced ->
      let pva = ref_gather bundles (Array.map (fun v -> v ** alpha) m.Market.valuations) in
      Array.map2
        (fun p c ->
          alpha
          *. ref_sum (Array.init (Array.length p) (fun i -> c.(i) *. p.(i)))
          /. ((alpha -. 1.) *. ref_sum p))
        pva member_cs
  | Market.Linear _ ->
      let vs = ref_gather bundles m.Market.valuations in
      let bs = ref_gather bundles (Market.linear_b m) in
      Array.init (Bundle.count bundles) (fun g ->
          let b = bs.(g) and c = member_cs.(g) in
          Lin.bundle_price ~a_sum:(ref_sum vs.(g)) ~b_sum:(ref_sum b)
            ~bc_sum:(ref_sum (Array.init (Array.length b) (fun i -> b.(i) *. c.(i)))))
  | Market.Logit _ ->
      let vs = ref_gather bundles m.Market.valuations in
      let agg =
        Array.map2 (fun v c -> ref_bundle_aggregate ~alpha ~valuations:v ~costs:c) vs member_cs
      in
      let bundle_vs = Array.map fst agg and bundle_cs = Array.map snd agg in
      let x =
        Logit.optimal_margin ~alpha
          ~ln_s:(ref_ln_s ~alpha ~valuations:bundle_vs ~costs:bundle_cs)
      in
      Array.map (fun c -> c +. (x /. alpha)) bundle_cs

let ref_outcome (m : Market.t) bundles bundle_prices =
  let { Market.alpha; valuations; costs; k; spec; _ } = m in
  let n = Market.n_flows m in
  let owner = Bundle.member_of bundles ~n_flows:n in
  let flow_prices = Array.init n (fun i -> bundle_prices.(owner.(i))) in
  let flow_demands, consumer_surplus =
    match spec with
    | Market.Ced ->
        ( Array.init n (fun i -> Ced.demand ~alpha ~v:valuations.(i) flow_prices.(i)),
          ref_sum
            (Array.init n (fun i ->
                 Ced.consumer_surplus ~alpha ~v:valuations.(i) flow_prices.(i))) )
    | Market.Linear _ ->
        let b = Market.linear_b m in
        ( Array.init n (fun i -> Lin.demand ~a:valuations.(i) ~b:b.(i) flow_prices.(i)),
          ref_sum
            (Array.init n (fun i ->
                 Lin.consumer_surplus ~a:valuations.(i) ~b:b.(i) flow_prices.(i))) )
    | Market.Logit _ ->
        ( ref_demands_at ~alpha ~k ~valuations ~prices:flow_prices,
          ref_consumer_surplus ~alpha ~k ~valuations ~prices:flow_prices )
  in
  let revenue = ref_sum (Array.init n (fun i -> flow_prices.(i) *. flow_demands.(i))) in
  let delivery_cost = ref_sum (Array.init n (fun i -> costs.(i) *. flow_demands.(i))) in
  (flow_prices, flow_demands, revenue, delivery_cost, consumer_surplus)

(* The envelope as it was: a capture context per (market, bundle
   count). *)
let ref_envelope ~markets ~strategy ~bundle_counts ~mode =
  let pick = match mode with `Min -> Float.min | `Max -> Float.max in
  let start = match mode with `Min -> infinity | `Max -> neg_infinity in
  List.map
    (fun n_bundles ->
      ( n_bundles,
        List.fold_left
          (fun acc m ->
            let ctx = Capture.context m in
            let bundles = Strategy.apply strategy m ~n_bundles in
            pick acc (Capture.value ctx (Pricing.evaluate m bundles).Pricing.profit))
          start markets ))
    bundle_counts

(* --- generators -------------------------------------------------------- *)

(* Finite values, infinities, NaN and both zeros, in arrays of any length
   including 0. *)
let special_float =
  QCheck.Gen.(
    frequency
      [
        (10, float_range (-1e3) 1e3);
        (2, float_range (-1e300) 1e300);
        (1, return Float.nan);
        (1, return Float.infinity);
        (1, return Float.neg_infinity);
        (1, return (-0.));
        (1, return 0.);
      ])

let arb_special_array =
  QCheck.make
    ~print:QCheck.Print.(array float)
    QCheck.Gen.(array_size (0 -- 24) special_float)

(* A logit kernel input: alpha, valuations, prices (or costs) and a
   population, 1-40 flows. *)
let arb_logit_input =
  QCheck.make
    ~print:(fun (a, v, p, k) ->
      Printf.sprintf "alpha=%h k=%h v=%s p=%s" a k
        QCheck.Print.(array float v)
        QCheck.Print.(array float p))
    QCheck.Gen.(
      1 -- 40 >>= fun n ->
      quad (float_range 0.05 8.)
        (array_size (return n) (float_range (-60.) 60.))
        (array_size (return n) (float_range (-20.) 80.))
        (float_range 0.1 1e6))

(* Flows for a random market (3-40 flows, demands and distances over
   orders of magnitude) and the market's parameters. *)
let flow_spec_gen =
  QCheck.Gen.(list_size (3 -- 40) (pair (float_range 0.5 2000.) (float_range 1. 9000.)))

type market_case = {
  flows : (float * float) list;
  spec : Market.demand_spec;
  alphas : float list;  (* one market per alpha *)
}

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        return Market.Ced;
        map (fun s0 -> Market.Logit { s0 }) (float_range 0.1 0.8);
        map (fun epsilon -> Market.Linear { epsilon }) (float_range 1.1 4.);
      ])

let alpha_gen = function
  | Market.Ced -> QCheck.Gen.float_range 1.05 6.
  | Market.Logit _ | Market.Linear _ -> QCheck.Gen.float_range 0.6 4.

let arb_market_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%s alphas=%s flows=%s"
        (Market.demand_spec_name c.spec)
        QCheck.Print.(list float c.alphas)
        QCheck.Print.(list (pair float float) c.flows))
    QCheck.Gen.(
      flow_spec_gen >>= fun flows ->
      spec_gen >>= fun spec ->
      list_size (1 -- 4) (alpha_gen spec) >>= fun alphas -> return { flows; spec; alphas })

(* Fresh fits (cold memos) of a case's markets; fits the model rejects
   (e.g. a logit s0 implying negative costs) are dropped. *)
let markets_of c =
  List.filter_map
    (fun alpha ->
      match
        Market.fit ~spec:c.spec ~alpha ~p0:20. ~cost_model:(Cost_model.linear ~theta:0.2)
          (Fixtures.flows_of_spec c.flows)
      with
      | m -> Some m
      | exception Invalid_argument _ -> None)
    c.alphas

(* --- properties -------------------------------------------------------- *)

let prop_stats =
  QCheck.Test.make ~name:"Stats.sum/logsumexp/min/max = fold references, bitwise"
    ~count:1000 arb_special_array (fun xs ->
      same_bits (Numerics.Stats.sum xs) (ref_sum xs)
      && same_bits (Numerics.Stats.logsumexp xs) (ref_logsumexp xs)
      && (Array.length xs = 0
         || same_bits (Numerics.Stats.min xs) (ref_min xs)
            && same_bits (Numerics.Stats.max xs) (ref_max xs))
      && same_bits
           (Numerics.Stats.sum_products xs (Array.map (fun x -> x *. 0.5) xs))
           (ref_sum (Array.map (fun x -> x *. (x *. 0.5)) xs)))

let prop_logit_kernels =
  QCheck.Test.make ~name:"Logit kernels = Array.map2/append references, bitwise"
    ~count:500 arb_logit_input (fun (alpha, valuations, prices, k) ->
      let s, s0 = Logit.shares ~alpha ~valuations ~prices in
      let rs, rs0 = ref_shares ~alpha ~valuations ~prices in
      let d, cs = Logit.demands_and_surplus ~alpha ~k ~valuations ~prices in
      let rd = ref_demands_at ~alpha ~k ~valuations ~prices in
      let rcs = ref_consumer_surplus ~alpha ~k ~valuations ~prices in
      let costs = prices in
      let vb, cb = Logit.bundle_aggregate ~alpha ~valuations ~costs in
      let rvb, rcb = ref_bundle_aggregate ~alpha ~valuations ~costs in
      same_array s rs && same_bits s0 rs0 && same_array d rd && same_bits cs rcs
      && same_array (Logit.demands_at ~alpha ~k ~valuations ~prices) rd
      && same_bits (Logit.consumer_surplus ~alpha ~k ~valuations ~prices) rcs
      && same_bits
           (Logit.profit_at ~alpha ~k ~valuations ~costs:(Array.map (fun p -> p /. 2.) prices) ~prices)
           (ref_profit_at ~alpha ~k ~valuations ~costs:(Array.map (fun p -> p /. 2.) prices) ~prices)
      && same_bits vb rvb && same_bits cb rcb
      && same_bits (Logit.ln_s ~alpha ~valuations ~costs) (ref_ln_s ~alpha ~valuations ~costs))

(* Random partitions of a random market, priced optimally and at
   perturbed prices: every outcome field matches the reference. *)
let prop_pricing =
  QCheck.Test.make ~name:"Pricing outcome and bundle prices = Array.init references, bitwise"
    ~count:200
    (QCheck.pair arb_market_case (QCheck.make QCheck.Gen.(list_size (return 40) (0 -- 4))))
    (fun (c, labels) ->
      List.for_all
        (fun m ->
          let n = Market.n_flows m in
          let assignment = Array.init n (fun i -> List.nth labels i) in
          let bundles = Bundle.of_assignment ~n_bundles:5 assignment in
          let prices = Pricing.(evaluate m bundles).Pricing.bundle_prices in
          let check prices =
            let o = Pricing.evaluate_at_prices m bundles prices in
            let fp, fd, rev, dc, cs = ref_outcome m bundles prices in
            same_array o.Pricing.flow_prices fp
            && same_array o.Pricing.flow_demands fd
            && same_bits o.Pricing.revenue rev
            && same_bits o.Pricing.delivery_cost dc
            && same_bits o.Pricing.profit (rev -. dc)
            && same_bits o.Pricing.consumer_surplus cs
          in
          same_array prices (ref_bundle_prices m bundles)
          && check prices
          && check (Array.map (fun p -> p *. 1.25) prices))
        (markets_of c))

(* The memoized sort orders and the strategies that read them. *)
let prop_orders =
  QCheck.Test.make ~name:"memoized profit/cost orders = per-call sorts" ~count:200
    (QCheck.pair arb_market_case (QCheck.make QCheck.Gen.(1 -- 7)))
    (fun (c, n_bundles) ->
      List.for_all
        (fun m ->
          let profits = Market.potential_profits m in
          let by_profit = ref_order_desc profits in
          let by_cost = ref_order_desc (Array.map (fun c -> -.c) m.Market.costs) in
          let order, _, _ = Strategy.dp_inputs m in
          let n = Market.n_flows m in
          let b = min n_bundles n in
          let cuts =
            List.sort_uniq Int.compare
              (List.filter (fun c -> c > 0 && c < n) (List.init (b - 1) (fun j -> (j + 1) * n / b)))
          in
          Market.profit_order m = by_profit
          && Market.cost_order m = by_cost && order = by_cost
          && Strategy.apply Strategy.Profit_weighted m ~n_bundles
             = Strategy.token_bucket ~weights:profits ~order:by_profit ~n_bundles
          && Strategy.apply Strategy.Index_division m ~n_bundles
             = Bundle.contiguous ~order:by_cost ~cuts)
        (markets_of c))

(* The hoisted envelope against a context per (market, bundle count),
   on separately fitted (cold-memo) copies of the same markets. *)
let prop_envelope =
  QCheck.Test.make ~name:"hoisted Sensitivity.envelope = per-(market, B) contexts, bitwise"
    ~count:150
    (QCheck.triple arb_market_case
       (QCheck.make QCheck.Gen.(oneofl Strategy.all))
       (QCheck.make QCheck.Gen.(oneofl [ `Min; `Max ])))
    (fun (c, strategy, mode) ->
      let run f =
        match markets_of c with
        | [] -> QCheck.assume_fail ()
        | markets -> (
            match f ~markets ~strategy ~bundle_counts:[ 1; 2; 3; 5 ] ~mode with
            | env -> Ok env
            | exception Invalid_argument msg -> Error msg)
      in
      match (run Sensitivity.envelope, run ref_envelope) with
      | Ok fast, Ok slow ->
          List.for_all2 (fun (b, x) (b', y) -> b = b' && same_bits x y) fast slow
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_stats; prop_logit_kernels; prop_pricing; prop_orders; prop_envelope ]
