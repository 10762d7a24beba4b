(** Constant-elasticity demand (§3.2.1).

    Demand for flow [i] is [Q_i(p) = (v_i / p)^alpha] with price
    sensitivity [alpha > 1] and valuation [v_i > 0]. Demands of distinct
    flows are separable, which gives closed forms for everything the
    evaluation needs: per-flow optimal prices (Eq. 4), bundle prices
    (Eq. 5), the valuation fit (§4.1.2), the cost scale γ (§4.1.3) and
    each flow's profit potential (Eq. 12). *)

val check_alpha : float -> unit
(** Raises [Invalid_argument] unless [alpha > 1]. *)

val demand : alpha:float -> v:float -> float -> float
(** [demand ~alpha ~v p] is [(v / p)^alpha]. Requires [p > 0]. *)

val inverse_demand : alpha:float -> v:float -> float -> float
(** Price at which the flow demands a given quantity. *)

val flow_profit : alpha:float -> v:float -> c:float -> float -> float
(** [flow_profit ~alpha ~v ~c p = (v/p)^alpha * (p - c)]. *)

val optimal_price : alpha:float -> c:float -> float
(** Eq. 4: [alpha * c / (alpha - 1)]. Requires [c > 0]. *)

val potential_profit : alpha:float -> v:float -> c:float -> float
(** Eq. 12: the profit of the flow at its own optimal price. *)

val bundle_price : alpha:float -> valuations:float array -> costs:float array -> float
(** Eq. 5: the profit-maximizing common price of a bundle,
    [alpha * sum c_i v_i^alpha / ((alpha - 1) * sum v_i^alpha)]. *)

val bundle_price_pow :
  alpha:float -> pow_valuations:float array -> costs:float array -> float
(** [bundle_price] taking the already-raised [v_i ** alpha] (e.g.
    {!Market.pow_valuations}), skipping the power per call on the hot
    pricing path. Bit-identical to [bundle_price]. *)

val bundle_profit :
  alpha:float -> valuations:float array -> costs:float array -> price:float -> float
(** Total profit of the bundle members at a common price. *)

val valuation_of_demand : alpha:float -> p0:float -> q:float -> float
(** §4.1.2: [v = p0 * q^(1/alpha)] — the valuation under which observed
    demand [q] at blended price [p0] is optimal consumption. *)

val gamma :
  alpha:float -> p0:float -> valuations:float array -> rel_costs:float array -> float
(** §4.1.3: the cost scale γ that makes the blended price [p0] the
    profit-maximizing single-bundle price given relative costs
    [f(d_i)]. *)

val consumer_surplus : alpha:float -> v:float -> float -> float
(** [consumer_surplus ~alpha ~v p]: area between the demand curve and
    the price, [v * Q^(1 - 1/alpha) / (1 - 1/alpha) - p * Q]. *)

val surplus_of_demand : alpha:float -> v:float -> q:float -> float -> float
(** [surplus_of_demand ~alpha ~v ~q p] is [consumer_surplus ~alpha ~v p]
    given [q = demand ~alpha ~v p] already computed (bit-identical). *)
