(** A fitted transit market: flows plus the derived model parameters.

    Fitting implements the paper's central inversion (§4.1): assume the
    ISP currently charges one blended price [p0] for everything and is
    already profit-maximizing. Then the observed demands pin down the
    valuations [v_i], and stationarity of profit at [p0] pins down the
    scale γ that converts relative costs [f(d_i)] into absolute costs
    [c_i = γ f(d_i)]. Counterfactual bundlings are evaluated against the
    resulting market. *)

type demand_spec =
  | Ced  (** Constant-elasticity demand. *)
  | Logit of { s0 : float }
      (** Logit demand with non-participating share [s0] at [p0]. *)
  | Linear of { epsilon : float }
      (** Linear demand with common point elasticity [epsilon] at [p0]
          (extension; see {!Lin}). *)

val demand_spec_name : demand_spec -> string

type memo
(** Lazily filled per-market derived arrays ([v_i^alpha], linear slopes,
    profit potentials, and the profit and cost sort orders).
    Deterministic pure functions of the fit, so the lazy fill is a
    benign race under the domain pool; kept as plain mutable options so
    markets stay marshallable with empty flags. *)

type t = private {
  flows : Flow.t array;
  spec : demand_spec;
  alpha : float;
  p0 : float;  (** The blended rate everything was observed at. *)
  cost_model : Cost_model.t;
  valuations : float array;
      (** Per flow: CED/logit valuations [v_i]; under [Linear], the
          demand intercepts [a_i]. *)
  costs : float array;  (** Absolute costs [gamma * f(d_i)], per flow. *)
  gamma : float;
  k : float;  (** Logit population; [nan] under CED. *)
  memo : memo;
}

val fit :
  spec:demand_spec ->
  alpha:float ->
  p0:float ->
  cost_model:Cost_model.t ->
  Flow.t array ->
  t
(** Raises [Invalid_argument] on an empty flow array, non-positive
    demands, an [alpha] invalid for the chosen model (CED needs
    [alpha > 1], logit [alpha > 0]) or a logit fit whose [p0] cannot
    cover the implied margin (see {!Logit.gamma}). *)

val linear_b : t -> float array
(** The [b_i] slope coefficients of a [Linear] market (derived from the
    observed demands, memoized on first use — do not mutate). Raises
    [Invalid_argument] on other specs. *)

val pow_valuations : t -> float array
(** Per-flow [v_i ** alpha], memoized on first use (do not mutate). The
    CED segment DP and bundle pricing are dominated by this power when
    recomputed per call. *)

val of_parameters :
  spec:demand_spec ->
  alpha:float ->
  ?p0:float ->
  ?k:float ->
  valuations:float array ->
  costs:float array ->
  Flow.t array ->
  t
(** Bypass fitting: build a market from explicit valuations and costs
    (toy examples, tests, Fig. 1). [p0] defaults to the single-bundle
    optimal price implied by the parameters; [k] (logit population)
    defaults to [1]. The stored cost model is a linear placeholder with
    [gamma = 1]. Not supported for [Linear] demand (whose second
    coefficient only exists through the fit). *)

val n_flows : t -> int

val potential_profits : t -> float array
(** Per-flow profit potential: Eq. 12 for CED; for logit, Eq. 13's
    observation that potential profit is proportional to demand. Used by
    profit-weighted bundling. *)

val order_by_desc : float array -> int -> int array
(** [order_by_desc key n]: indices [0, n) sorted by [key] decreasing
    ({!Float.compare}), ties by index. *)

val profit_order : t -> int array
(** [order_by_desc (potential_profits t) (n_flows t)], memoized on first
    use (do not mutate): the traversal order of profit-weighted
    bundling, which does not depend on the bundle count. *)

val cost_order : t -> int array
(** Flow indices in ascending-cost order, ties by index (the order the
    segment DP and index division run over), memoized on first use (do
    not mutate). *)

val pp : Format.formatter -> t -> unit
