(** Logit discrete-choice demand (§3.2.2).

    Consumers choose among flows (or send nothing); flow [i]'s market
    share is [s_i = e^(alpha (v_i - p_i)) / (sum_j e^(alpha (v_j - p_j)) + 1)]
    and its demand is [K s_i] for a population [K]. Everything is
    computed in exponent space with log-sum-exp shifts so large
    [alpha * v] never overflows.

    Two structural facts carry the whole evaluation:
    - every profit-maximizing price has the {e same} margin
      [m = 1/(alpha s_0)] (Eq. 9), so optimal pricing reduces to the
      scalar equation [x - 1 = S e^(-x)] with [x = alpha m] and
      [S = sum_b e^(alpha (v_b - c_b))];
    - the optimal profit is [K (x - 1) / alpha], increasing in [S], so
      comparing bundlings is comparing their [S]. *)

val check_alpha : float -> unit
(** Raises [Invalid_argument] unless [alpha > 0]. *)

val check_s0 : float -> unit
(** Raises [Invalid_argument] unless [s0] is in [(0, 1)]. *)

type fit = { valuations : float array; k : float; s0 : float; p0 : float }

val fit_valuations :
  alpha:float -> p0:float -> s0:float -> demands:float array -> fit
(** §4.1.2: from observed demands at the blended price [p0], assuming a
    non-participating share [s0]: [s_i = q_i (1 - s0) / sum q],
    [v_i = (ln s_i - ln s0) / alpha + p0], [K = sum q / (1 - s0)].
    Requires strictly positive demands. *)

val gamma :
  alpha:float ->
  p0:float ->
  s0:float ->
  valuations:float array ->
  rel_costs:float array ->
  float
(** §4.1.3 for logit (derived in DESIGN.md): the scale that makes [p0]
    the profit-maximizing blended price,
    [(p0 - 1/(alpha s0)) * sum w_i / sum w_i f(d_i)] with
    [w_i = e^(alpha (v_i - p0))]. Raises [Invalid_argument] when
    [p0 <= 1/(alpha s0)] (the observed market would imply negative
    costs). *)

val shares :
  alpha:float -> valuations:float array -> prices:float array -> float array * float
(** [(per-flow shares, s0)] at the given prices; sums to 1. *)

val demands_at :
  alpha:float -> k:float -> valuations:float array -> prices:float array -> float array

val demands_and_surplus :
  alpha:float ->
  k:float ->
  valuations:float array ->
  prices:float array ->
  float array * float
(** [(demands_at ..., consumer_surplus ...)] from one exponent pass,
    bit-identical to calling both. *)

val profit_at :
  alpha:float ->
  k:float ->
  valuations:float array ->
  costs:float array ->
  prices:float array ->
  float

val consumer_surplus :
  alpha:float -> k:float -> valuations:float array -> prices:float array -> float
(** The standard logit inclusive value
    [(K / alpha) ln (sum_j e^(alpha (v_j - p_j)) + 1)]. *)

val bundle_aggregate :
  alpha:float -> valuations:float array -> costs:float array -> float * float
(** Eqs. 10-11: the single (valuation, cost) pair equivalent to pricing
    the member flows as one bundle:
    [v_b = ln (sum e^(alpha v_i)) / alpha] and
    [c_b = sum c_i e^(alpha v_i) / sum e^(alpha v_i)]. *)

val optimal_margin : alpha:float -> ln_s:float -> float
(** Solves [x - 1 = e^(ln_s - x)] for [x = alpha * margin] by
    safeguarded Newton; [ln_s] is the log-sum-exp of
    [alpha (v_b - c_b)] over bundles. The optimal non-participation
    share is [1 / x]. *)

val ln_s : alpha:float -> valuations:float array -> costs:float array -> float

type optimum = { prices : float array; x : float; profit_per_k : float }
(** [profit_per_k] is profit divided by the population [K]:
    [(x - 1) / alpha]. *)

val optimize : alpha:float -> valuations:float array -> costs:float array -> optimum
(** Jointly optimal prices for goods with the given valuations and
    costs: [p_b = c_b + x / alpha]. *)
