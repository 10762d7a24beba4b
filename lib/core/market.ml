type demand_spec = Ced | Logit of { s0 : float } | Linear of { epsilon : float }

let demand_spec_name = function
  | Ced -> "ced"
  | Logit _ -> "logit"
  | Linear _ -> "linear"

(* Derived per-flow arrays the hot paths keep re-asking for. Each field
   is a deterministic pure function of the immutable fit parameters, so
   the lazy initialization is a benign race under the domain pool: two
   domains may both compute the same array and one write wins, and any
   reader sees either [None] (recompute) or a fully built array. Plain
   mutable options rather than [Lazy.t] so markets stay marshallable
   with empty flags (the disk cache tier and the worker fleet both
   Marshal them). *)
type memo = {
  mutable pow_valuations : float array option;
  mutable linear_b : float array option;
  mutable potential_profits : float array option;
  mutable profit_order : int array option;
  mutable cost_order : int array option;
}

let fresh_memo () =
  {
    pow_valuations = None;
    linear_b = None;
    potential_profits = None;
    profit_order = None;
    cost_order = None;
  }

(* Indices [0, n) sorted by a per-flow key, decreasing. Ties break by
   index for determinism. Monomorphic comparisons: the keys are floats
   (Float.compare totally orders NaN exactly like the polymorphic
   compare did, so this is behavior-preserving). *)
let order_by_desc (key : float array) n =
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match Float.compare key.(j) key.(i) with 0 -> Int.compare i j | c -> c)
    idx;
  idx

type t = {
  flows : Flow.t array;
  spec : demand_spec;
  alpha : float;
  p0 : float;
  cost_model : Cost_model.t;
  valuations : float array;
  costs : float array;
  gamma : float;
  k : float;
  memo : memo;
}

let fit ~spec ~alpha ~p0 ~cost_model flows =
  if Array.length flows = 0 then invalid_arg "Market.fit: no flows";
  if not (p0 > 0.) then invalid_arg "Market.fit: p0 must be positive";
  let demands = Flow.demands flows in
  Array.iter
    (fun q -> if not (q > 0.) then invalid_arg "Market.fit: demands must be positive")
    demands;
  let rel_costs = Cost_model.relative_costs cost_model flows in
  match spec with
  | Ced ->
      Ced.check_alpha alpha;
      let valuations =
        Array.map (fun q -> Ced.valuation_of_demand ~alpha ~p0 ~q) demands
      in
      let gamma = Ced.gamma ~alpha ~p0 ~valuations ~rel_costs in
      let costs = Array.map (fun f -> gamma *. f) rel_costs in
      {
        flows; spec; alpha; p0; cost_model; valuations; costs; gamma;
        k = Float.nan; memo = fresh_memo ();
      }
  | Logit { s0 } ->
      let { Logit.valuations; k; _ } = Logit.fit_valuations ~alpha ~p0 ~s0 ~demands in
      let gamma = Logit.gamma ~alpha ~p0 ~s0 ~valuations ~rel_costs in
      let costs = Array.map (fun f -> gamma *. f) rel_costs in
      {
        flows; spec; alpha; p0; cost_model; valuations; costs; gamma; k;
        memo = fresh_memo ();
      }
  | Linear { epsilon } ->
      Lin.check_epsilon epsilon;
      let valuations =
        Array.map (fun q -> fst (Lin.coefficients ~epsilon ~p0 ~q)) demands
      in
      let gamma = Lin.gamma ~epsilon ~p0 ~demands ~rel_costs in
      let costs = Array.map (fun f -> gamma *. f) rel_costs in
      {
        flows; spec; alpha; p0; cost_model; valuations; costs; gamma;
        k = Float.nan; memo = fresh_memo ();
      }

let n_flows t = Array.length t.flows

let linear_b t =
  match t.spec with
  | Linear { epsilon } -> (
      match t.memo.linear_b with
      | Some b -> b
      | None ->
          let b =
            Array.map
              (fun (f : Flow.t) -> epsilon *. f.Flow.demand_mbps /. t.p0)
              t.flows
          in
          t.memo.linear_b <- Some b;
          b)
  | Ced | Logit _ -> invalid_arg "Market.linear_b: not a linear-demand market"

let pow_valuations t =
  match t.memo.pow_valuations with
  | Some p -> p
  | None ->
      let p = Array.map (fun v -> v ** t.alpha) t.valuations in
      t.memo.pow_valuations <- Some p;
      p

let of_parameters ~spec ~alpha ?p0 ?(k = 1.) ~valuations ~costs flows =
  if Array.length flows = 0 then invalid_arg "Market.of_parameters: no flows";
  if
    Array.length valuations <> Array.length flows
    || Array.length costs <> Array.length flows
  then invalid_arg "Market.of_parameters: array length mismatch";
  Array.iter
    (fun c -> if not (c > 0.) then invalid_arg "Market.of_parameters: costs must be positive")
    costs;
  let p0 =
    match p0 with
    | Some p -> p
    | None -> (
        (* The blended optimum implied by the parameters. *)
        match spec with
        | Linear _ ->
            invalid_arg "Market.of_parameters: Linear demand requires Market.fit"
        | Ced -> Ced.bundle_price ~alpha ~valuations ~costs
        | Logit _ ->
            let v_b, c_b = Logit.bundle_aggregate ~alpha ~valuations ~costs in
            let { Logit.prices; _ } =
              Logit.optimize ~alpha ~valuations:[| v_b |] ~costs:[| c_b |]
            in
            prices.(0))
  in
  (match spec with
  | Ced -> Ced.check_alpha alpha
  | Logit { s0 } -> Logit.check_s0 s0
  | Linear _ -> invalid_arg "Market.of_parameters: Linear demand requires Market.fit");
  {
    flows;
    spec;
    alpha;
    p0;
    cost_model = Cost_model.linear ~theta:0.;
    valuations;
    costs;
    gamma = 1.;
    k = (match spec with Ced | Linear _ -> Float.nan | Logit _ -> k);
    memo = fresh_memo ();
  }

let potential_profits t =
  match t.memo.potential_profits with
  | Some p -> p
  | None ->
      let p =
        match t.spec with
        | Ced ->
            Array.init (n_flows t) (fun i ->
                Ced.potential_profit ~alpha:t.alpha ~v:t.valuations.(i)
                  ~c:t.costs.(i))
        | Logit _ ->
            (* Eq. 13: potential profit is K s_i / (alpha s_0),
               proportional to the observed demand. *)
            Flow.demands t.flows
        | Linear _ ->
            let b = linear_b t in
            Array.init (n_flows t) (fun i ->
                Lin.potential_profit ~a:t.valuations.(i) ~b:b.(i) ~c:t.costs.(i))
      in
      t.memo.potential_profits <- Some p;
      p

let profit_order t =
  match t.memo.profit_order with
  | Some o -> o
  | None ->
      let o = order_by_desc (potential_profits t) (n_flows t) in
      t.memo.profit_order <- Some o;
      o

let cost_order t =
  match t.memo.cost_order with
  | Some o -> o
  | None ->
      let o = order_by_desc (Array.map Float.neg t.costs) (n_flows t) in
      t.memo.cost_order <- Some o;
      o

let pp ppf t =
  Format.fprintf ppf "%s market: %d flows, alpha=%g, p0=%g, %a, gamma=%.4g"
    (demand_spec_name t.spec) (n_flows t) t.alpha t.p0 Cost_model.pp t.cost_model
    t.gamma
