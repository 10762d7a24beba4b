(** Fast segment-partition dynamic programming.

    Solves [max over partitions of 0..n-1 into at most n_bundles
    contiguous segments of sum (seg_value lo hi)] ([lo], [hi] inclusive
    positions), the optimal-bundling recurrence of the tier DP
    (DESIGN.md §11).

    All solvers share the quadratic DP's exact semantics: ties inside a
    column break toward the smallest split index, and ties across
    segment counts break toward the fewest segments (strict [>]
    updates). [solve] computes each layer on one of two rungs:

    + region-wise monotone-decision divide and conquer — O(b n log n)
      evaluations when each region's layer matrix is inverse Monge,
      which the closed-form CED/linear/logit segment profits are
      (piecewise, once clamped/underflowed prefix ranges are split out
      via [regions]); kept only when sampled adjacent quadruples
      (seg-only Monge, else the candidates' pairwise order) and an
      exact re-solve of sampled columns (value and argmax bit-for-bit)
      certify it;
    + otherwise the exact quadratic row, so a structurally hostile
      [seg_value] degrades to quadratic time, not to different cuts.

    The regression suite pins [solve = solve_quadratic] cut-for-cut on
    random markets of every demand spec and on an adversarial corpus of
    hostile layers. *)

type stats = {
  layers : int;  (** DP layers computed, including the base layer. *)
  fallback_layers : int;
      (** Layers that failed the D&C certificate and were recomputed
          with the exact quadratic row ([solve] only; always [0] for
          [solve_quadratic]). *)
  evaluations : int;  (** Total [seg_value] calls, checks included. *)
  regions : int;
      (** Number of piecewise regions the solve ran with ([1] when no
          decomposition was supplied). *)
}

type result = {
  cuts : int list;
      (** Segment start positions (ascending, in [\[1, n-1\]], excluding
          the implicit start at [0]) — the argument order expected by
          [Bundle.contiguous]. *)
  segments : int;  (** Number of segments, [List.length cuts + 1]. *)
  value : float;  (** Total [seg_value] of the returned partition. *)
  stats : stats;
}

val solve_quadratic :
  n:int -> n_bundles:int -> (int -> int -> float) -> result
(** [solve_quadratic ~n ~n_bundles seg_value]: the exact
    O(n_bundles * n^2) reference DP. Raises [Invalid_argument] when
    [n < 1] or [n_bundles < 1]. *)

val solve :
  ?samples:int ->
  ?regions:int array ->
  n:int ->
  n_bundles:int ->
  (int -> int -> float) ->
  result
(** Two-rung solver (certified region-wise D&C, else the exact row);
    cut-for-cut identical to [solve_quadratic] on every input whose
    hostile structure the spot-checks detect — and the checks fail
    toward the backstop, NaN included. [samples] bounds the exact column
    re-solves and the Monge probes per layer (default [16]; [0]
    disables validation and accepts the D&C rung outright). [regions]
    lists piecewise-region start positions, strictly increasing from
    [0] within [\[0, n)] (default [[|0|]]): the D&C re-anchors its
    candidate range at every region start, so clamped or underflowed
    [seg_value] branches only need the Monge property locally — see
    [Strategy.dp_inputs], which derives the logit decomposition. Raises
    [Invalid_argument] on malformed [n], [n_bundles] or [regions]. *)

val verify :
  ?samples:int ->
  ?regions:int array ->
  n:int ->
  n_bundles:int ->
  (int -> int -> float) ->
  result ->
  bool
(** [verify ~n ~n_bundles seg_value r] is the exact check for instances
    too large for {!solve_quadratic}: it re-solves through the ladder
    (with the given [regions]) and re-solves up to [samples] (default
    [64]) deterministically drawn columns of every layer with exact
    full-range scans, value and argmax bit-for-bit; [r]'s cuts and
    value must equal the re-solve's bit-for-bit. [r] is normally the
    result of {!solve} on the same arguments. Raises
    [Invalid_argument] like {!solve}. *)
