module Market = Tiered.Market
module Flow = Tiered.Flow

type flow_meta = {
  m_id : int;
  m_distance_miles : float;
  m_locality : Flow.locality;
  m_on_net : bool;
}

let meta_of_workload (w : Flowgen.Workload.t) =
  let index = Hashtbl.create (List.length w.flows) in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      Hashtbl.replace index
        (Flowgen.Ipv4.to_int f.src_addr, Flowgen.Ipv4.to_int f.dst_addr)
        {
          m_id = f.id;
          m_distance_miles = f.distance_miles;
          m_locality = Tiered.Dataset.locality_of f.locality;
          m_on_net = f.on_net;
        })
    w.flows;
  fun src dst ->
    Hashtbl.find_opt index (Flowgen.Ipv4.to_int src, Flowgen.Ipv4.to_int dst)

type params = {
  spec : Market.demand_spec;
  alpha : float;
  p0 : float;
  n_bundles : int;
  cost_model : Tiered.Cost_model.t;
  samples : int;
  cold_every : int;
  use_cache : bool;
}

type calib = {
  gamma : float;
  rel_cost : Flow.t -> float;
  costs : (int, float) Hashtbl.t;
      (* flow id -> gamma * rel_cost, memoized: every cost model prices
         static flow attributes (distance, locality, identity), never
         demand, so the frozen absolute cost is a constant per flow. *)
}

type t = {
  params : params;
  meta_of : Flowgen.Ipv4.t -> Flowgen.Ipv4.t -> flow_meta option;
  mutable calib : calib option;
  mutable meta_memo : flow_meta option option array;
      (* window uid -> oracle answer; window uids are dense and stable,
         so the per-window join is an array probe, not a rehash of
         every endpoint pair. *)
}

let create params ~meta_of =
  (match params.spec with
  | Market.Linear _ ->
      invalid_arg "Serve.Retier: Linear demand has no parametric rebuild"
  | Market.Ced | Market.Logit _ -> ());
  if params.n_bundles < 1 then invalid_arg "Serve.Retier: n_bundles < 1";
  if params.samples < 0 then invalid_arg "Serve.Retier: samples < 0";
  { params; meta_of; calib = None; meta_memo = [||] }

let calibrated t = t.calib <> None

type outcome = {
  o_bin : int;
  o_n_flows : int;
  o_skipped : int;
  o_cuts : int list;
  o_prices : float array;
  o_profit : float;
  o_evaluations : int;
  o_fallback : bool;
}

let empty_outcome ~bin ~skipped =
  {
    o_bin = bin;
    o_n_flows = 0;
    o_skipped = skipped;
    o_cuts = [];
    o_prices = [||];
    o_profit = 0.;
    o_evaluations = 0;
    o_fallback = false;
  }

let flow_of_meta m ~mbps =
  Flow.make ~locality:m.m_locality ~on_net:m.m_on_net ~id:m.m_id
    ~demand_mbps:mbps ~distance_miles:m.m_distance_miles ()

let meta_for t (fr : Window.flow_rate) =
  let uid = fr.Window.f_uid in
  let len = Array.length t.meta_memo in
  if uid >= len then begin
    let grown = Array.make (max (2 * len) (uid + 1)) None in
    Array.blit t.meta_memo 0 grown 0 len;
    t.meta_memo <- grown
  end;
  match t.meta_memo.(uid) with
  | Some m -> m
  | None ->
      let m = t.meta_of fr.Window.f_src fr.Window.f_dst in
      t.meta_memo.(uid) <- Some m;
      m

(* Join a snapshot against the metadata oracle. Returns the priceable
   flows' metadata and demands (in snapshot order) and the count of
   rates with no metadata. *)
let join t (snap : Window.snapshot) =
  let skipped = ref 0 in
  let pairs =
    Array.to_list snap.Window.s_flows
    |> List.filter_map (fun (fr : Window.flow_rate) ->
           match meta_for t fr with
           | Some m -> Some (m, fr.Window.f_mbps)
           | None ->
               incr skipped;
               None)
  in
  ( Array.of_list (List.map fst pairs),
    Array.of_list (List.map snd pairs),
    !skipped )

let ensure_calibrated t metas qs =
  match t.calib with
  | Some c -> c
  | None ->
      let flows =
        Array.init (Array.length metas) (fun i ->
            flow_of_meta metas.(i) ~mbps:qs.(i))
      in
      let m0 =
        Market.fit ~spec:t.params.spec ~alpha:t.params.alpha ~p0:t.params.p0
          ~cost_model:t.params.cost_model flows
      in
      let c =
        {
          gamma = m0.Market.gamma;
          rel_cost = Tiered.Cost_model.freeze t.params.cost_model flows;
          costs = Hashtbl.create 4096;
        }
      in
      t.calib <- Some c;
      c

let cost_of calib m ~q =
  match Hashtbl.find_opt calib.costs m.m_id with
  | Some c -> c
  | None ->
      let c = calib.gamma *. calib.rel_cost (flow_of_meta m ~mbps:q) in
      Hashtbl.add calib.costs m.m_id c;
      c

(* Rebuild the window's market from the frozen calibration: absolute
   costs off the memo, the flows sorted by (cost, id) — which makes
   [Strategy.dp_inputs]'s cost order the identity — and valuations
   tracking the demands (per-flow closed form under CED, global
   inversion under logit). *)
let market_of t metas qs =
  let { spec; alpha; p0; _ } = t.params in
  let calib = ensure_calibrated t metas qs in
  let n = Array.length metas in
  let cost = Array.init n (fun i -> cost_of calib metas.(i) ~q:qs.(i)) in
  let perm = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match Float.compare cost.(i) cost.(j) with
      | 0 -> Int.compare metas.(i).m_id metas.(j).m_id
      | c -> c)
    perm;
  let costs = Array.map (fun i -> cost.(i)) perm in
  let sorted = Array.map (fun i -> flow_of_meta metas.(i) ~mbps:qs.(i)) perm in
  let valuations, k =
    match spec with
    | Market.Ced ->
        ( Array.map
            (fun i ->
              Tiered.Ced.valuation_of_demand ~alpha ~p0 ~q:qs.(i))
            perm,
          None )
    | Market.Logit { s0 } ->
        let fit =
          Tiered.Logit.fit_valuations ~alpha ~p0 ~s0
            ~demands:(Array.map (fun i -> qs.(i)) perm)
        in
        (fit.Tiered.Logit.valuations, Some fit.Tiered.Logit.k)
    | Market.Linear _ -> assert false (* rejected by [create] *)
  in
  Market.of_parameters ~spec ~alpha ~p0 ?k ~valuations ~costs sorted

let market t snap =
  let metas, qs, _ = join t snap in
  if Array.length metas = 0 then None else Some (market_of t metas qs)

let retier t (snap : Window.snapshot) =
  let metas, qs, skipped = join t snap in
  let n = Array.length metas in
  if n = 0 then empty_outcome ~bin:snap.Window.s_bin ~skipped
  else begin
    let market = market_of t metas qs in
    let order, seg_value, regions = Tiered.Strategy.dp_inputs market in
    let r =
      Numerics.Segdp.solve ~samples:t.params.samples ~regions ~n
        ~n_bundles:t.params.n_bundles seg_value
    in
    let bundles = Tiered.Bundle.contiguous ~order ~cuts:r.Numerics.Segdp.cuts in
    let priced = Tiered.Pricing.evaluate market bundles in
    {
      o_bin = snap.Window.s_bin;
      o_n_flows = n;
      o_skipped = skipped;
      o_cuts = r.Numerics.Segdp.cuts;
      o_prices = priced.Tiered.Pricing.bundle_prices;
      o_profit = priced.Tiered.Pricing.profit;
      o_evaluations = r.Numerics.Segdp.stats.Numerics.Segdp.evaluations;
      o_fallback = r.Numerics.Segdp.stats.Numerics.Segdp.fallback_layers > 0;
    }
  end

let solve_cold = retier
