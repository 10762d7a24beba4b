(** Re-tiering: one tier solve per window on a frozen calibration.

    Every window is solved from scratch — one certified-ladder
    {!Numerics.Segdp.solve} on the window's rebuilt market — so posted
    tiers depend only on the calibration and the window's snapshot,
    never on the windows before it. Three things define them
    (DESIGN.md §12):

    {ol
    {- {b Frozen calibration.} {!Tiered.Market.fit} rescales γ (and the
       cost model's set-wide normalizations) from whatever flows it is
       given, so refitting per window would reprice {e every} flow on
       any demand change. Instead the first non-empty window calibrates
       once — γ from the fit, relative costs pinned by
       {!Tiered.Cost_model.freeze} — and later windows rebuild the
       market via [Market.of_parameters] with only the valuations
       tracking demand (per-flow closed form under CED; the global
       logit inversion otherwise).}
    {- {b (cost, id) presort.} Flows are sorted by (absolute cost, flow
       id) before the market is built, so the DP's cost order is the
       identity and ties between equal-cost flows break the same way in
       every window.}
    {- {b Per-flow cost memo.} Every cost model prices static flow
       attributes, never demand, so each flow's frozen absolute cost is
       computed once and reused by every later window.}}

    Nothing is carried between windows beyond these: a sliding window
    moves every flow's rate, so no prefix of the DP stays valid from
    one window to the next and reusing DP state saves no work. *)

type flow_meta = {
  m_id : int;
  m_distance_miles : float;
  m_locality : Tiered.Flow.locality;
  m_on_net : bool;
}
(** Static per-flow metadata, joined by endpoint pair — what the
    workload knows about a flow beyond its measured rate. *)

val meta_of_workload :
  Flowgen.Workload.t ->
  Flowgen.Ipv4.t ->
  Flowgen.Ipv4.t ->
  flow_meta option
(** Metadata oracle over a workload's ground truth. *)

type params = {
  spec : Tiered.Market.demand_spec;
  alpha : float;
  p0 : float;
  n_bundles : int;
  cost_model : Tiered.Cost_model.t;
  samples : int;  (** Spot-check budget per DP layer (see {!Numerics.Segdp.solve}). *)
  cold_every : int;  (** Ignored. Kept because [perfbench/] builds this record. *)
  use_cache : bool;  (** Ignored, like [cold_every]. *)
}

type t

val create :
  params ->
  meta_of:(Flowgen.Ipv4.t -> Flowgen.Ipv4.t -> flow_meta option) ->
  t
(** Raises [Invalid_argument] on [Linear] demand (no parametric rebuild
    exists for it — see [Market.of_parameters]), [n_bundles < 1] or
    [samples < 0]. *)

type outcome = {
  o_bin : int;  (** Window bin the tiers were posted at. *)
  o_n_flows : int;
  o_skipped : int;  (** Window flows with no metadata (not priced). *)
  o_cuts : int list;  (** Tier boundaries in cost-order positions. *)
  o_prices : float array;  (** One price per tier. *)
  o_profit : float;
  o_evaluations : int;  (** [seg_value] calls this re-tier. *)
  o_fallback : bool;  (** A DP layer needed the exact quadratic backstop. *)
}

val retier : t -> Window.snapshot -> outcome
(** Solve the window, calibrating on the first non-empty one. An empty
    window posts no tiers and leaves the calibration untouched. *)

val market : t -> Window.snapshot -> Tiered.Market.t option
(** The market {!retier} solves for the window — flows in (cost, id)
    order — or [None] for a window with no priceable flows. Calibrates
    like {!retier} if the instance has not yet seen a non-empty window.
    The tests and the bench check {!retier} against
    {!Numerics.Segdp.solve_quadratic} on it. *)

val solve_cold : t -> Window.snapshot -> outcome
(** Same as {!retier}. Kept because [perfbench/] calls it. *)

val calibrated : t -> bool
