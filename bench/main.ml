(* The reproduction harness: regenerates every table and figure of the
   paper (see DESIGN.md's experiment index), runs the ablations and
   extensions called out there, and certifies the tier-DP kernel.

   Usage: dune exec bench/main.exe [section ...] [--dp-FLAG=VALUE ...]
   with sections among: experiments fig2 fig17 ablations extensions dp
   (default: all). A specific experiment id (e.g. fig8) also works; any
   other argument exits 2 with the list of known sections.

   The experiments section executes on the Engine domain pool; the dp
   section checks the certified ladder against the exact quadratic DP
   and records its table in BENCH_dp.json (regenerate with `make
   bench-dp`). Performance is measured with a spread by perfbench/
   (BENCHMARK.json), not here. *)

open Tiered

let ppf = Format.std_formatter
let section title = Format.fprintf ppf "@.@.######## %s ########@." title

(* --- paper experiments --------------------------------------------------- *)

let run_experiment (e : Experiment.t) =
  Format.fprintf ppf "@.---- %s: %s ----@." e.Experiment.id e.Experiment.description;
  List.iter (Report.print ppf) (e.Experiment.run ())

let print_result (r : Runner.result) =
  Format.fprintf ppf "@.---- %s: %s ----@." r.Runner.id r.Runner.description;
  List.iter (Report.print ppf) r.Runner.tables

let run_experiments () =
  section "Paper tables and figures";
  (* The whole registry goes through the engine pool; results are
     merged in submission order, so the output is identical to the
     historical serial walk at any job count. *)
  let metrics = Engine.Metrics.create () in
  let results = Runner.run_experiments ~metrics Experiment.all in
  List.iter print_result results;
  List.iter (Report.print ppf) (Runner.metrics_reports (Engine.Metrics.snapshot metrics))

(* --- Figure 2: the direct-peering bypass -------------------------------- *)

let run_fig2 () =
  section "Figure 2: blended rates push customers to direct peering";
  let isp_cost = 5.0 and isp_margin = 0.3 and accounting_overhead = 0.5 in
  let blended_rate = 20. in
  let rows =
    List.map
      (fun direct_cost ->
        let v =
          Routing.Policy.Bypass.decide
            {
              Routing.Policy.Bypass.blended_rate;
              direct_cost;
              isp_cost;
              isp_margin;
              accounting_overhead;
            }
        in
        [
          Printf.sprintf "$%.0f" direct_cost;
          (if v.Routing.Policy.Bypass.customer_bypasses then "yes" else "no");
          Printf.sprintf "$%.2f" v.Routing.Policy.Bypass.tiered_price;
          (if v.Routing.Policy.Bypass.market_failure then "market failure" else "-");
          Report.cell_f v.Routing.Policy.Bypass.customer_saving;
        ])
      [ 4.; 7.; 10.; 15.; 19.; 25. ]
  in
  Report.print ppf
    (Report.make
       ~title:
         (Printf.sprintf
            "CDN bypass decision (blended R=$%.0f, ISP cost $%.1f, margin %.0f%%, overhead $%.1f)"
            blended_rate isp_cost (100. *. isp_margin) accounting_overhead)
       ~header:[ "c_direct"; "bypasses?"; "tier price"; "efficiency"; "saving" ]
       rows
       ~notes:
         [
           "bypass with c_direct above the tier price is the Fig. 2 market \
            failure: a tiered offer would have kept the traffic";
         ])

(* --- Figure 17: accounting architectures --------------------------------- *)

let run_fig17 () =
  section "Figure 17: link-based vs flow-based tier accounting";
  let w = Experiment.workload "eu_isp" in
  let flows = Dataset.of_workload w in
  let market =
    Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
      ~p0:Experiment.Defaults.p0
      ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
      flows
  in
  let bundles = Strategy.apply Strategy.Optimal market ~n_bundles:3 in
  let outcome = Pricing.evaluate market bundles in
  let owner = Bundle.member_of bundles ~n_flows:(Market.n_flows market) in
  (* Tag one route per workload flow with its tier. *)
  let assignments =
    List.map
      (fun (f : Flowgen.Workload.flow) ->
        {
          Routing.Tagging.dst_prefix = Flowgen.Ipv4.prefix f.Flowgen.Workload.dst_addr 24;
          tier = owner.(f.Flowgen.Workload.id);
          next_hop = f.Flowgen.Workload.entry.Netsim.Node.id;
        })
      w.Flowgen.Workload.flows
  in
  let rib = Routing.Tagging.build_rib ~asn:65000 assignments in
  let rng = Numerics.Rng.create 99 in
  let records = Flowgen.Netflow.synthesize ~rng (Flowgen.Workload.to_ground_truth w) in
  let records = Flowgen.Dedup.dedup records in
  let snmp = Routing.Accounting.Snmp.create ~n_tiers:(Bundle.count bundles) () in
  Routing.Accounting.Snmp.observe snmp ~rib records;
  let link_usage = Routing.Accounting.Snmp.usage snmp in
  let flow_usage = Routing.Accounting.flow_based ~rib records in
  let rows =
    List.map2
      (fun (tier, link_bytes) (_, flow_bytes) ->
        [
          string_of_int tier;
          Printf.sprintf "$%.2f" outcome.Pricing.bundle_prices.(tier);
          Printf.sprintf "%.2f" (link_bytes /. 1e12);
          Printf.sprintf "%.2f" (flow_bytes /. 1e12);
          Report.cell_pct (abs_float (link_bytes -. flow_bytes) /. flow_bytes);
        ])
      link_usage.Routing.Accounting.tier_bytes flow_usage.Routing.Accounting.tier_bytes
  in
  Report.print ppf
    (Report.make ~title:"Per-tier accounted volume, EU ISP, 3 optimal tiers"
       ~header:[ "tier"; "price"; "link-based (TB)"; "flow-based (TB)"; "divergence" ]
       rows
       ~notes:[ "both architectures must account the same wire traffic" ])

(* --- ablations ------------------------------------------------------------ *)

let ablation_dp_vs_exhaustive () =
  (* Sub-sample a real market to 10 flows so exhaustive search is
     feasible, then compare the production DP against it. *)
  let w = Experiment.workload "internet2" in
  let all_flows = Dataset.of_workload w in
  let flows =
    Array.init 10 (fun i ->
        let f = all_flows.(i * (Array.length all_flows / 10)) in
        Flow.make ~locality:f.Flow.locality ~on_net:f.Flow.on_net ~id:i
          ~demand_mbps:f.Flow.demand_mbps ~distance_miles:f.Flow.distance_miles ())
  in
  let rows =
    List.concat_map
      (fun spec ->
        let m =
          Market.fit ~spec ~alpha:Experiment.Defaults.alpha ~p0:Experiment.Defaults.p0
            ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
            flows
        in
        List.map
          (fun b ->
            let dp =
              (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
                .Pricing.profit
            in
            let ex =
              (Pricing.evaluate m (Strategy.exhaustive_optimal m ~n_bundles:b))
                .Pricing.profit
            in
            [
              Market.demand_spec_name m.Market.spec;
              string_of_int b;
              Report.cell_f dp;
              Report.cell_f ex;
              Report.cell_pct ((ex -. dp) /. ex);
            ])
          [ 2; 3; 4 ])
      [ Market.Ced; Market.Logit { s0 = Experiment.Defaults.s0 } ]
  in
  Report.print ppf
    (Report.make ~title:"Ablation: contiguous-DP optimal vs exhaustive set partitions"
       ~header:[ "demand"; "bundles"; "DP profit"; "exhaustive"; "gap" ]
       rows
       ~notes:[ "the DP is provably exact for CED; near-exact for logit" ])

let ablation_logit_pricing () =
  let m = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  let rows =
    List.map
      (fun b ->
        let bundles = Strategy.apply Strategy.Optimal m ~n_bundles:b in
        let closed = Pricing.evaluate m bundles in
        (* Numeric check: ascend profit directly over bundle prices. *)
        let profit prices = (Pricing.evaluate_at_prices m bundles prices).Pricing.profit in
        let numeric =
          Numerics.Gradient.ascent ~step0:0.1 ~max_iter:5000 ~f:profit
            ~grad:(Numerics.Gradient.numeric_grad profit)
            closed.Pricing.bundle_prices
        in
        [
          string_of_int b;
          Report.cell_f closed.Pricing.profit;
          Report.cell_f numeric.Numerics.Gradient.value;
          Report.cell_pct
            ((numeric.Numerics.Gradient.value -. closed.Pricing.profit)
            /. closed.Pricing.profit);
        ])
      [ 2; 3; 4 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: logit closed-form margin (Eqs. 9-11) vs numeric gradient ascent"
       ~header:[ "bundles"; "closed-form profit"; "ascended profit"; "gain" ]
       rows
       ~notes:[ "a positive gain would falsify the common-margin optimality" ])

let ablation_class_aware () =
  let m =
    Experiment.market ~spec:Market.Ced
      ~cost_model:(Cost_model.destination_type ~theta:0.1) "eu_isp"
  in
  let ctx = Capture.context m in
  let capture strategy b =
    Capture.value ctx
      (Pricing.evaluate m (Strategy.apply strategy m ~n_bundles:b)).Pricing.profit
  in
  let rows =
    List.map
      (fun b ->
        [
          string_of_int b;
          Report.cell_f (capture Strategy.Profit_weighted b);
          Report.cell_f (capture Strategy.Profit_weighted_classes b);
        ])
      Experiment.Defaults.bundle_counts
  in
  Report.print ppf
    (Report.make
       ~title:
         "Ablation: plain vs class-aware profit weighting (destination-type cost, theta=0.1)"
       ~header:[ "bundles"; "plain"; "class-aware" ]
       rows
       ~notes:
         [
           "the paper's Section 4.3.1 fix: never group on-net and off-net \
            flows in one bundle";
         ])

let ablation_sampling () =
  (* Methodology robustness: how much does packet sampling distort the
     fitted capture curve? *)
  let w = Experiment.workload "eu_isp" in
  let capture_at_rate rate =
    let flows =
      if rate = 1 then Dataset.of_workload w else Dataset.via_netflow ~sampling_rate:rate w
    in
    let m =
      Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
        ~p0:Experiment.Defaults.p0
        ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
        flows
    in
    Sensitivity.capture_at m Strategy.Optimal ~n_bundles:4
  in
  let rows =
    List.map
      (fun rate -> [ string_of_int rate; Report.cell_f (capture_at_rate rate) ])
      [ 1; 100; 1000; 10000 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: packet-sampling rate vs fitted optimal capture (EU ISP, B=4)"
       ~header:[ "1-in-N sampling"; "capture" ]
       rows
       ~notes:[ "rate 1 = ground truth; the paper's traces were sampled NetFlow" ])

let ablation_cv_claims () =
  (* Two side claims from the paper's 4.2.2: (1) "given fixed demand, a
     high CV of distance (cost) leads to higher absolute profits";
     (2) "networks with higher coefficient of variation of demand need
     more bundles to extract maximum profit". *)
  let rows =
    List.map
      (fun (network, theta) ->
        let m =
          Experiment.market ~spec:Market.Ced
            ~cost_model:(Cost_model.linear ~theta) network
        in
        let cost_cv = Numerics.Stats.cv m.Market.costs in
        let demand_cv = Numerics.Stats.cv (Flow.demands m.Market.flows) in
        let ctx = Capture.context m in
        let headroom_share = Capture.headroom ctx /. ctx.Capture.original in
        let bundles_to_90 =
          let rec search b =
            if b > 16 then 16
            else if
              Capture.value ctx
                (Pricing.evaluate m (Strategy.apply Strategy.Optimal m ~n_bundles:b))
                  .Pricing.profit
              >= 0.9
            then b
            else search (b + 1)
          in
          search 1
        in
        [
          Printf.sprintf "%s theta=%.2f" network theta;
          Report.cell_f cost_cv;
          Report.cell_pct headroom_share;
          Report.cell_f demand_cv;
          string_of_int bundles_to_90;
        ])
      [
        ("eu_isp", 0.05); ("eu_isp", 0.2); ("eu_isp", 0.5); ("internet2", 0.2);
        ("cdn", 0.2);
      ]
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: the paper's CV claims (4.2.2), CED demand"
       ~header:
         [ "network"; "CV of cost"; "headroom / blended profit"; "CV of demand";
           "bundles to 90% capture" ]
       rows
       ~notes:
         [
           "claim 1: headroom should increase with cost CV; claim 2: \
            bundles-to-90% should increase with demand CV";
         ])

let ablation_demand_families () =
  (* Robustness to the demand family itself: the paper argues its
     results hold because CED and logit agree; linear demand (extension)
     is a third, independent family. *)
  let specs =
    [
      Market.Ced; Market.Logit { s0 = Experiment.Defaults.s0 };
      Market.Linear { epsilon = 1.8 };
    ]
  in
  let markets = List.map (fun spec -> Experiment.market ~spec "eu_isp") specs in
  let rows =
    List.map
      (fun b ->
        string_of_int b
        :: List.map
             (fun m ->
               Report.cell_f (Sensitivity.capture_at m Strategy.Optimal ~n_bundles:b))
             markets)
      Experiment.Defaults.bundle_counts
  in
  Report.print ppf
    (Report.make
       ~title:"Ablation: optimal capture across demand families (EU ISP)"
       ~header:("bundles" :: List.map Market.demand_spec_name specs)
       rows
       ~notes:
         [
           "linear demand is an extension (common point elasticity 1.8 at \
            p0); the 3-4 tier conclusion must not hinge on the demand \
            family";
         ])

let run_ablations () =
  section "Ablations";
  ablation_cv_claims ();
  ablation_demand_families ();
  ablation_dp_vs_exhaustive ();
  ablation_logit_pricing ();
  ablation_class_aware ();
  ablation_sampling ()

(* --- extensions ----------------------------------------------------------- *)

let extension_welfare () =
  let rows_for spec =
    let m = Experiment.market ~spec "eu_isp" in
    List.map
      (fun b ->
        let a = Welfare.of_strategy m Strategy.Optimal ~n_bundles:b in
        [
          Market.demand_spec_name m.Market.spec;
          string_of_int b;
          Report.cell_f a.Welfare.profit;
          Report.cell_f a.Welfare.consumer_surplus;
          Report.cell_pct a.Welfare.efficiency;
          Report.cell_f a.Welfare.deadweight_loss;
        ])
      [ 1; 2; 3; 4; 6 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: welfare decomposition vs tier count (EU ISP, optimal bundling)"
       ~header:[ "demand"; "bundles"; "profit"; "surplus"; "efficiency"; "DWL" ]
       (rows_for Market.Ced @ rows_for (Market.Logit { s0 = Experiment.Defaults.s0 }))
       ~notes:
         [
           "efficiency = welfare / first-best (marginal-cost) welfare; \
            tiering helps both sides (Section 2.2.1 writ large)";
         ])

let extension_dynamics () =
  let truth = Experiment.market ~spec:Market.Ced "eu_isp" in
  let rows =
    List.map
      (fun est ->
        let rounds =
          Dynamics.simulate
            {
              Dynamics.truth;
              estimated_alpha = est;
              strategy = Strategy.Optimal;
              n_bundles = 3;
              rounds = 12;
              damping = 0.7;
            }
        in
        let capture_at i = (List.nth rounds i).Dynamics.capture in
        let blended = (List.hd rounds).Dynamics.true_profit in
        let final = List.nth rounds (List.length rounds - 1) in
        [
          Printf.sprintf "%.2f" est;
          Report.cell_f (capture_at 1);
          Report.cell_f (Dynamics.final_capture rounds);
          Report.cell_pct (final.Dynamics.true_profit /. blended);
          (if Dynamics.converged ~tol:1e-4 rounds then "yes" else "no");
        ])
      [ 1.05; 1.1; 1.5; 2.5; 4.0 ]
  in
  let calibrated_row =
    let rounds =
      Estimate.calibrated_dynamics ~noise_cv:0.02 ~truth ~strategy:Strategy.Optimal
        ~n_bundles:3 ~rounds:12 ()
    in
    let blended = (List.hd rounds).Dynamics.true_profit in
    let final = List.nth rounds (List.length rounds - 1) in
    [
      "probe-calibrated";
      Report.cell_f (List.nth rounds 1).Dynamics.capture;
      Report.cell_f (Dynamics.final_capture rounds);
      Report.cell_pct (final.Dynamics.true_profit /. blended);
      (if Dynamics.converged ~tol:1e-4 rounds then "yes" else "no");
    ]
  in
  let rows = rows @ [ calibrated_row ] in
  Report.print ppf
    (Report.make
       ~title:
         "Extension: repricing dynamics under elasticity misestimation (true alpha = 1.1)"
       ~header:[ "believed alpha"; "capture r1"; "final capture"; "profit vs blended"; "converged" ]
       rows
       ~notes:
         [
           "the ISP re-fits demand from observations each round with its \
            own alpha belief; misestimating elasticity costs orders of \
            magnitude more profit than coarse tiering ever does (capture \
            is relative to the small tiering headroom, hence the large \
            negative values). The probe-calibrated row estimates alpha \
            from a wide-spread price experiment first (Tiered.Estimate)";
         ])

let extension_competition () =
  (* A stylized transit duopoly over the market's fitted valuations. *)
  let m = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  (* Thin to 100 flows to keep the table readable cheaply. *)
  let idx = Array.init 100 (fun i -> i * (Market.n_flows m / 100)) in
  let valuations = Array.map (fun i -> m.Market.valuations.(i)) idx in
  let costs_a = Array.map (fun i -> m.Market.costs.(i)) idx in
  let incumbent = Competition.firm ~name:"incumbent" ~costs:costs_a in
  let entrant_at scale =
    Competition.firm ~name:"entrant"
      ~costs:(Array.map (fun c -> c *. scale) costs_a)
  in
  let alpha = m.Market.alpha in
  let mono = Competition.monopoly ~alpha ~valuations incumbent in
  let rows =
    ([
       "monopoly"; Report.cell_f mono.Competition.margins.(0); "-";
       Report.cell_f mono.Competition.shares.(0); "-";
       Report.cell_f mono.Competition.profits.(0); "-";
     ]
    :: List.map
         (fun (label, scale) ->
           let eq = Competition.nash ~alpha ~valuations [| incumbent; entrant_at scale |] in
           [
             label;
             Report.cell_f eq.Competition.margins.(0);
             Report.cell_f eq.Competition.margins.(1);
             Report.cell_f eq.Competition.shares.(0);
             Report.cell_f eq.Competition.shares.(1);
             Report.cell_f eq.Competition.profits.(0);
             Report.cell_f eq.Competition.profits.(1);
           ])
         [
           ("entrant @ 100% cost", 1.0); ("entrant @ 70% (year 1)", 0.7);
           ("entrant @ 49% (year 2)", 0.49); ("entrant @ 34% (year 3)", 0.34);
         ])
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: Bertrand-logit duopoly; entrant costs fall 30%/year"
       ~header:
         [ "scenario"; "margin A"; "margin B"; "share A"; "share B"; "profit A"; "profit B" ]
       rows
       ~notes:
         [
           "margins compress as the entrant's cost advantage grows -- the \
            Section 1 story of transit prices falling ~30%/year under \
            competition";
         ])

let extension_commit () =
  (* Volume tiering over a heterogeneous customer population. *)
  let rng = Numerics.Rng.create 7001 in
  let alpha = 2.0 and unit_cost = 2.0 in
  let valuations =
    Array.init 500 (fun _ -> Numerics.Dist.lognormal_of_mean_cv rng ~mean:10. ~cv:1.2)
  in
  let menu_row label menu =
    let o = Commit.evaluate ~alpha ~unit_cost ~valuations menu in
    [
      label;
      String.concat " "
        (Array.to_list
           (Array.map
              (fun t -> Printf.sprintf "%.0f@$%.2f" t.Commit.commit_mbps t.Commit.rate)
              menu));
      Report.cell_f o.Commit.profit;
      Report.cell_f o.Commit.consumer_surplus;
      string_of_int o.Commit.opted_out;
    ]
  in
  let rows =
    List.map
      (fun n ->
        let commits = Commit.commit_quantiles ~alpha ~p0:4. ~valuations ~n in
        let menu = Commit.optimize_rates ~alpha ~unit_cost ~valuations ~commits in
        menu_row (Printf.sprintf "%d commit tier(s)" n) menu)
      [ 1; 2; 3; 4 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: volume (commit) tiering -- the other axis of Section 2.1"
       ~header:[ "menu"; "tiers (commit@rate)"; "profit"; "surplus"; "opt-outs" ]
       rows
       ~notes:
         [
           "under CED the single usage rate is already the monopoly \
            optimum for every customer, so menus gain only through commit \
            floors (second-degree discrimination) -- a structural reason \
            volume discounts alone are weak, supporting the paper's focus \
            on destination tiers";
         ])

let extension_peak () =
  (* A higher elasticity makes margins thin enough that peak-load costs
     bite; at the default alpha = 1.1 the 11x markup drowns them. *)
  let m = Experiment.market ~alpha:3.0 ~spec:Market.Ced "eu_isp" in
  let shape = Flowgen.Netflow.default_shape in
  let rows =
    List.concat_map
      (fun premium ->
        List.map
          (fun (label, periods) ->
            let o = Peak.evaluate ~congestion_premium:premium m Strategy.Optimal ~n_bundles:3 periods in
            [
              Printf.sprintf "%.1f" premium;
              label;
              Report.cell_f o.Peak.single_price_profit;
              Report.cell_f o.Peak.per_period_profit;
              Report.cell_pct o.Peak.gain;
            ])
          [
            ("peak/off-peak", Array.to_list (Peak.peak_offpeak shape) |> Array.of_list);
            ("6 periods", Peak.periods_of_shape shape ~n_periods:6);
          ])
      [ 0.0; 0.5; 1.0 ]
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: time-of-day pricing under peak-load delivery costs (EU ISP, alpha=3)"
       ~header:[ "cost premium"; "periods"; "single-price"; "per-period"; "gain" ]
       rows
       ~notes:
         [
           "with flat costs (premium 0) CED's scale invariance makes \
            time-of-day pricing worthless; gains appear only through \
            peak-load cost";
         ])

let extension_how_many_tiers () =
  (* The title question, answered: net profit once each tier carries an
     explicit monthly overhead (extra sessions, links, billing plumbing). *)
  let m = Experiment.market ~spec:(Market.Logit { s0 = Experiment.Defaults.s0 }) "eu_isp" in
  let headroom = Capture.headroom (Capture.context m) in
  let rows =
    List.map
      (fun share ->
        let per_tier = share *. headroom in
        let o = Tier_count.overhead ~per_tier () in
        let best = Tier_count.optimal m Strategy.Optimal o ~max_bundles:8 in
        [
          Printf.sprintf "%.0f%% of headroom" (100. *. share);
          Printf.sprintf "$%.0f" per_tier;
          string_of_int best.Tier_count.n_bundles;
          Report.cell_f best.Tier_count.net_profit;
        ])
      [ 0.001; 0.01; 0.03; 0.1; 0.3 ]
  in
  let break_even b =
    Tier_count.break_even_overhead m Strategy.Optimal ~from_bundles:b ~to_bundles:(b + 1)
  in
  Report.print ppf
    (Report.make
       ~title:"Extension: how many tiers? net-optimal tier count vs per-tier overhead (EU ISP, logit)"
       ~header:[ "per-tier overhead"; "$/month"; "optimal #tiers"; "net profit" ]
       rows
       ~notes:
         [
           Printf.sprintf
             "marginal value of the 2nd/3rd/4th tier: $%.0f / $%.0f / $%.0f per \
              month -- overhead above these caps the tier count, which is why \
              real contracts stop at 2-4 tiers"
             (break_even 1) (break_even 2) (break_even 3);
         ])

let extension_failures () =
  (* Operational robustness: when a backbone link fails, flow distances
     (and with them the cost model) shift. How many destinations would a
     distance-defined tier sheet re-classify, and what does serving the
     new distances at the stale tier prices cost? *)
  let topo = Netsim.Presets.internet2 () in
  let w = Experiment.workload "internet2" in
  let fit flows =
    Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
      ~p0:Experiment.Defaults.p0
      ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
      flows
  in
  let baseline_flows = Dataset.of_workload w in
  let baseline = fit baseline_flows in
  let bundles = Strategy.apply Strategy.Optimal baseline ~n_bundles:3 in
  let owner = Bundle.member_of bundles ~n_flows:(Market.n_flows baseline) in
  let stale_prices = (Pricing.evaluate baseline bundles).Pricing.bundle_prices in
  let all_links = Netsim.Graph.links topo.Netsim.Topology.graph in
  let nodes = Array.to_list (Netsim.Graph.nodes topo.Netsim.Topology.graph) in
  let reroute_flows failed =
    let remaining = List.filter (fun l -> l != failed) all_links in
    match Netsim.Topology.of_nodes_links ~name:"degraded" nodes remaining with
    | exception Invalid_argument _ -> None (* bridge link: network splits *)
    | degraded ->
        let dist =
          let cache = Hashtbl.create 16 in
          fun src ->
            match Hashtbl.find_opt cache src with
            | Some d -> d
            | None ->
                let d =
                  Netsim.Graph.shortest_path_lengths degraded.Netsim.Topology.graph
                    ~src
                in
                Hashtbl.add cache src d;
                d
        in
        Some
          (Array.of_list
             (List.map
                (fun (f : Flowgen.Workload.flow) ->
                  let dst_pop =
                    Netsim.Topology.pop_by_city degraded
                      f.Flowgen.Workload.dst_city.Netsim.Cities.name
                  in
                  let base = f.Flowgen.Workload.distance_miles in
                  let old_path =
                    match
                      Netsim.Graph.path_distance_miles topo.Netsim.Topology.graph
                        ~src:f.Flowgen.Workload.entry.Netsim.Node.id
                        ~dst:dst_pop.Netsim.Node.id
                    with
                    | Some d -> d
                    | None -> 0.
                  in
                  let new_path = (dist f.Flowgen.Workload.entry.Netsim.Node.id).(dst_pop.Netsim.Node.id) in
                  (* Keep the flow's local tail, swap the backbone leg. *)
                  Flow.make ~id:f.Flowgen.Workload.id
                    ~demand_mbps:f.Flowgen.Workload.mbps
                    ~distance_miles:(Float.max 0. (base -. old_path) +. new_path)
                    ())
                w.Flowgen.Workload.flows))
  in
  let rows =
    List.filter_map
      (fun (failed : Netsim.Link.t) ->
        match reroute_flows failed with
        | None -> None
        | Some flows ->
            let degraded_market = fit flows in
            let reassigned =
              let fresh = Strategy.apply Strategy.Optimal degraded_market ~n_bundles:3 in
              let fresh_owner =
                Bundle.member_of fresh ~n_flows:(Market.n_flows degraded_market)
              in
              Array.fold_left ( + ) 0
                (Array.mapi (fun i o -> if o <> fresh_owner.(i) then 1 else 0) owner)
            in
            let stale_profit =
              (Pricing.evaluate_at_prices degraded_market bundles stale_prices)
                .Pricing.profit
            in
            let fresh_profit =
              (Pricing.evaluate degraded_market
                 (Strategy.apply Strategy.Optimal degraded_market ~n_bundles:3))
                .Pricing.profit
            in
            let a = Netsim.Graph.node topo.Netsim.Topology.graph failed.Netsim.Link.a in
            let b = Netsim.Graph.node topo.Netsim.Topology.graph failed.Netsim.Link.b in
            Some
              [
                Printf.sprintf "%s-%s" a.Netsim.Node.city.Netsim.Cities.name
                  b.Netsim.Node.city.Netsim.Cities.name;
                string_of_int reassigned;
                Report.cell_pct ((fresh_profit -. stale_profit) /. fresh_profit);
              ])
      all_links
  in
  Report.print ppf
    (Report.make
       ~title:
         "Extension: Internet2 link failures -- tier churn and the cost of stale prices"
       ~header:[ "failed link"; "flows re-tiered"; "profit left on stale sheet" ]
       rows
       ~notes:
         [
           "flows re-routed over longer paths shift cost classes; the last \
            column is the profit gap between re-optimized and stale tier \
            prices on the degraded network";
         ])

let extension_tomogravity () =
  (* Run the whole evaluation from SNMP link counters only: estimate the
     traffic matrix by tomogravity, fit the market from the estimate,
     and compare tier structure quality against ground truth. *)
  let topo = Netsim.Presets.internet2 () in
  let w = Experiment.workload "internet2" in
  let pops = Array.of_list topo.Netsim.Topology.pops in
  let n = Array.length pops in
  let index_of_node =
    let table = Hashtbl.create 16 in
    Array.iteri (fun i (p : Netsim.Node.t) -> Hashtbl.add table p.Netsim.Node.id i) pops;
    Hashtbl.find table
  in
  (* Ground-truth PoP-level demands from the workload. *)
  let truth = Array.make_matrix n n 0. in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      let i = index_of_node f.Flowgen.Workload.entry.Netsim.Node.id in
      let dst = Netsim.Topology.pop_by_city topo f.Flowgen.Workload.dst_city.Netsim.Cities.name in
      let j = index_of_node dst.Netsim.Node.id in
      if i <> j then truth.(i).(j) <- truth.(i).(j) +. f.Flowgen.Workload.mbps)
    w.Flowgen.Workload.flows;
  let demands = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if truth.(i).(j) > 0. then demands := (i, j, truth.(i).(j)) :: !demands
    done
  done;
  let obs = Flowgen.Tomogravity.observe topo !demands in
  let estimated = Flowgen.Tomogravity.estimate topo obs in
  let quality = Flowgen.Tomogravity.compare_to_truth ~truth estimated in
  (* Fit a market from each matrix and compare capture at 3 tiers. *)
  let market_of matrix =
    let flows = ref [] in
    let id = ref 0 in
    let dist = Netsim.Topology.distance_matrix topo in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && matrix.(i).(j) > 0.01 then begin
          flows :=
            Flow.make ~id:!id ~demand_mbps:matrix.(i).(j)
              ~distance_miles:dist.(i).(j) ()
            :: !flows;
          incr id
        end
      done
    done;
    Market.fit ~spec:Market.Ced ~alpha:Experiment.Defaults.alpha
      ~p0:Experiment.Defaults.p0
      ~cost_model:(Cost_model.linear ~theta:Experiment.Defaults.theta)
      (Array.of_list (List.rev !flows))
  in
  let capture_of m = Sensitivity.capture_at m Strategy.Optimal ~n_bundles:3 in
  Report.print ppf
    (Report.make
       ~title:"Extension: evaluation from SNMP link counters only (tomogravity, Internet2)"
       ~header:[ "quantity"; "value" ]
       [
         [ "TM correlation vs truth"; Report.cell_f quality.Flowgen.Tomogravity.correlation ];
         [ "TM mean relative error"; Report.cell_pct quality.Flowgen.Tomogravity.mean_relative_error ];
         [ "capture@3 from true TM"; Report.cell_f (capture_of (market_of truth)) ];
         [ "capture@3 from estimated TM"; Report.cell_f (capture_of (market_of estimated)) ];
       ]
       ~notes:
         [
           "the capture from the estimated matrix is computed against the \
            estimated market's own headroom -- the point is that tier \
            design survives NetFlow-less measurement";
         ])

let extension_loading () =
  let w = Experiment.workload "eu_isp" in
  let report = Flowgen.Loading.of_workload w in
  Format.fprintf ppf "@.Extension: link loading of the EU ISP workload@.";
  Flowgen.Loading.pp ppf report

let run_extensions () =
  section "Extensions (beyond the paper)";
  extension_welfare ();
  extension_dynamics ();
  extension_competition ();
  extension_commit ();
  extension_peak ();
  extension_how_many_tiers ();
  extension_tomogravity ();
  extension_failures ();
  extension_loading ()

(* --- dp: tier-DP kernel, quadratic vs divide-and-conquer ------------------- *)

(* Times [Numerics.Segdp.solve] (the region-wise D&C / SMAWK /
   quadratic-backstop ladder) against [Numerics.Segdp.solve_quadratic]
   (the exact O(B n^2) reference) on the exact (seg_value, regions) the
   Optimal strategy runs ([Strategy.dp_inputs]), across demand specs
   and synthetic market sizes built from the eu_isp calibration via the
   Workload scale suffix (eu_isp@N). Every cell is checked against the
   reference — the run aborts otherwise: cells up to [--dp-max-exact]
   flows run the full quadratic leg; larger cells re-solve up to 64
   deterministically sampled columns of every layer with exact
   scans ([Segdp.verify], untimed), so no cell ships unchecked.
   The run also aborts if any cell needed a quadratic-backstop layer:
   the default grid is certified fast-path-only, and a regression
   reintroducing the O(n^2) cliff fails CI here rather than surfacing
   in a later full-size run. *)

type dp_case = {
  dc_spec : string;
  dc_n : int;
  dc_bundles : int;
  dc_fast_s : float;
  dc_fast_evals : int;
  dc_smawk_layers : int;
  dc_fallback_layers : int;
  dc_regions : int;
  dc_quad_s : float option;
  dc_quad_evals : int option;
  dc_speedup : float option;
  dc_check : string;
  dc_cuts_identical : bool;
}

(* Wall-clock one run; re-run small cases until ~0.2 s total so the
   per-solve figure is not timer noise. *)
let dp_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 0.2 then (r, dt)
  else begin
    let reps = max 1 (int_of_float (Float.ceil (0.2 /. Float.max 1e-6 dt))) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    let total = dt +. (Unix.gettimeofday () -. t0) in
    (r, total /. float_of_int (reps + 1))
  end

let run_dp_bench ~sizes ~bundle_counts ~max_exact () =
  section "DP: tier-partition kernel, quadratic vs divide-and-conquer";
  let specs =
    [
      ("ced", Market.Ced);
      ("logit", Market.Logit { s0 = Experiment.Defaults.s0 });
      ("linear", Market.Linear { epsilon = 1.8 });
    ]
  in
  let cases =
    List.concat_map
      (fun (spec_name, spec) ->
        List.concat_map
          (fun n ->
            let m = Experiment.market ~spec (Printf.sprintf "eu_isp@%d" n) in
            let n = Market.n_flows m in
            let _order, seg_value, regions = Strategy.dp_inputs m in
            List.map
              (fun b ->
                Format.fprintf ppf "  %s n=%d B=%d...@?" spec_name n b;
                let fast, fast_s =
                  dp_time (fun () ->
                      Numerics.Segdp.solve ~regions ~n ~n_bundles:b seg_value)
                in
                let quad =
                  if n > max_exact then None
                  else
                    Some
                      (dp_time (fun () ->
                           Numerics.Segdp.solve_quadratic ~n ~n_bundles:b seg_value))
                in
                let check, cuts_identical =
                  match quad with
                  | Some ((q : Numerics.Segdp.result), _) ->
                      ( "exact",
                        q.Numerics.Segdp.cuts = fast.Numerics.Segdp.cuts
                        && Float.equal q.Numerics.Segdp.value
                             fast.Numerics.Segdp.value )
                  | None ->
                      (* Too big for the full quadratic leg: re-solve the
                         same instance, check up to 64 sampled columns of
                         every layer with exact scans and the cuts and
                         value, bit-for-bit (untimed). *)
                      ( "sampled-columns",
                        Numerics.Segdp.verify ~samples:64 ~regions ~n
                          ~n_bundles:b seg_value fast )
                in
                if not cuts_identical then
                  failwith
                    (Printf.sprintf
                       "bench dp: fast-path cuts diverged from the exact \
                        reference (%s, n=%d, B=%d, check=%s)"
                       spec_name n b check);
                if fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers > 0
                then
                  failwith
                    (Printf.sprintf
                       "bench dp: quadratic-backstop layer on the default \
                        grid (%s, n=%d, B=%d) — the fast rungs regressed"
                       spec_name n b);
                let speedup =
                  Option.map (fun (_, quad_s) -> quad_s /. fast_s) quad
                in
                Format.fprintf ppf " %.4fs fast%s@." fast_s
                  (match quad with
                  | None -> ", quadratic skipped"
                  | Some (_, quad_s) -> Printf.sprintf ", %.4fs quadratic" quad_s);
                {
                  dc_spec = spec_name;
                  dc_n = n;
                  dc_bundles = b;
                  dc_fast_s = fast_s;
                  dc_fast_evals = fast.Numerics.Segdp.stats.Numerics.Segdp.evaluations;
                  dc_smawk_layers =
                    fast.Numerics.Segdp.stats.Numerics.Segdp.smawk_layers;
                  dc_fallback_layers =
                    fast.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers;
                  dc_regions = fast.Numerics.Segdp.stats.Numerics.Segdp.regions;
                  dc_quad_s = Option.map snd quad;
                  dc_quad_evals =
                    Option.map
                      (fun ((q : Numerics.Segdp.result), _) ->
                        q.Numerics.Segdp.stats.Numerics.Segdp.evaluations)
                      quad;
                  dc_speedup = speedup;
                  dc_check = check;
                  dc_cuts_identical = cuts_identical;
                })
              bundle_counts)
          sizes)
      specs
  in
  let opt_cell f = function None -> "-" | Some v -> f v in
  Report.print ppf
    (Report.make
       ~title:
         (Printf.sprintf
            "Tier-DP kernel wall clock (eu_isp@@N synthetic markets, exact leg \
             up to n=%d)"
            max_exact)
       ~header:
         [ "demand"; "n"; "B"; "fast (s)"; "evals"; "smawk"; "backstop";
           "quadratic (s)"; "speedup"; "check"; "cuts =" ]
       (List.map
          (fun c ->
            [
              c.dc_spec;
              string_of_int c.dc_n;
              string_of_int c.dc_bundles;
              Printf.sprintf "%.4f" c.dc_fast_s;
              string_of_int c.dc_fast_evals;
              string_of_int c.dc_smawk_layers;
              string_of_int c.dc_fallback_layers;
              opt_cell (Printf.sprintf "%.4f") c.dc_quad_s;
              opt_cell (Printf.sprintf "%.1fx") c.dc_speedup;
              c.dc_check;
              (if c.dc_cuts_identical then "yes" else "NO");
            ])
          cases)
       ~notes:
         [
           "both solvers run the (seg_value, regions) of Strategy.dp_inputs; \
            every cell is checked against the exact reference (full \
            quadratic leg up to max_exact_n, 64 sampled columns per layer \
            above) and must finish without quadratic-backstop layers";
         ]);
  Json_out.(
    write ppf "BENCH_dp.json"
      [
        ("grid", Str "tier-dp");
        ("workload", Str "eu_isp@N (scale suffix over the eu_isp calibration)");
        ("max_exact_n", Int max_exact);
        ( "cases",
          Arr
            (List.map
               (fun c ->
                 Obj
                   [
                     ("spec", Str c.dc_spec);
                     ("n", Int c.dc_n);
                     ("bundles", Int c.dc_bundles);
                     ("fast_s", num "%.6f" c.dc_fast_s);
                     ("fast_evals", Int c.dc_fast_evals);
                     ("smawk_layers", Int c.dc_smawk_layers);
                     ("fallback_layers", Int c.dc_fallback_layers);
                     ("regions", Int c.dc_regions);
                     ("quadratic_s", opt (num "%.6f") c.dc_quad_s);
                     ("quadratic_evals", opt (fun v -> Int v) c.dc_quad_evals);
                     ("speedup", opt (num "%.4f") c.dc_speedup);
                     ("check", Str c.dc_check);
                     ("cuts_identical", Bool c.dc_cuts_identical);
                   ])
               cases) );
      ])

(* --- command line ---------------------------------------------------------- *)

let sections = [ "experiments"; "fig2"; "fig17"; "ablations"; "extensions"; "dp" ]

(* dp-section knobs: --dp-sizes=1000,10000 --dp-bundles=3,10
   --dp-max-exact=50000 (the CI smoke shrinks sizes and max-exact). *)
let dp_flags = [ "--dp-sizes"; "--dp-bundles"; "--dp-max-exact" ]

let () =
  let raw_args = List.tl (Array.to_list Sys.argv) in
  let flags, args = List.partition (String.starts_with ~prefix:"--") raw_args in
  let split a =
    Option.map
      (fun i -> (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1)))
      (String.index_opt a '=')
  in
  (* A stray argument must not run nothing and exit 0: a caller of a
     retired section would otherwise pass silently. *)
  let unknown =
    List.filter
      (fun a ->
        match split a with
        | Some (name, _) -> not (List.mem name dp_flags)
        | None -> true)
      flags
    @ List.filter
        (fun a -> not (List.mem a sections || List.mem a (Experiment.ids ())))
        args
  in
  if unknown <> [] then begin
    Format.eprintf
      "bench: unknown argument(s): %s@.known sections: %s, or an experiment id \
       (tiered-cli list); flags: %s@."
      (String.concat " " unknown) (String.concat " " sections)
      (String.concat " " (List.map (fun f -> f ^ "=...") dp_flags));
    exit 2
  end;
  let flag_value name =
    List.fold_left
      (fun acc a ->
        match split a with Some (n, v) when n = name -> Some v | _ -> acc)
      None flags
  in
  let int_list_flag name default =
    match flag_value name with
    | None -> default
    | Some v ->
        let parts = String.split_on_char ',' v in
        let ints = List.filter_map int_of_string_opt parts in
        if List.length ints <> List.length parts || ints = [] then
          failwith (name ^ ": expected a comma-separated list of ints")
        else ints
  in
  let int_flag name default =
    match flag_value name with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> failwith (name ^ ": expected an int"))
  in
  let dp_sizes = int_list_flag "--dp-sizes" [ 1_000; 10_000; 50_000; 200_000 ] in
  let dp_bundles = int_list_flag "--dp-bundles" [ 3; 10 ] in
  let dp_max_exact = int_flag "--dp-max-exact" 50_000 in
  let want name = args = [] || List.mem name args in
  let experiment_filter = List.filter (fun a -> List.mem a (Experiment.ids ())) args in
  if experiment_filter <> [] then
    List.iter (fun id -> run_experiment (Experiment.find id)) experiment_filter
  else begin
    if want "experiments" then run_experiments ();
    if want "fig2" then run_fig2 ();
    if want "fig17" then run_fig17 ();
    if want "ablations" then run_ablations ();
    if want "extensions" then run_extensions ();
    if want "dp" then
      run_dp_bench ~sizes:dp_sizes ~bundle_counts:dp_bundles
        ~max_exact:dp_max_exact ()
  end;
  Format.fprintf ppf "@."
