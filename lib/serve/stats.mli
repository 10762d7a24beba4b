(** Service counters: throughput, re-tier latency, DP work.

    The daemon feeds one {!observe} per re-tier; {!summary} reduces to
    the figures the acceptance bench pins — records/s, the re-tier
    latency histogram (nearest-rank p50/p99) and the DP's segment
    evaluations and backstop fallbacks — renderable as a {!Tiered.Report} table or JSON. Quantities
    that can be absent rather than zero — quantiles of an empty
    histogram, duplicates when dedup is off — are options and render as
    JSON [null], never a misleading [0]. *)

type t

val create : unit -> t

val observe :
  t ->
  latency_s:float ->
  evaluations:int ->
  fallback:bool ->
  unit

type summary = {
  retiers : int;
  fallbacks : int;  (** Re-tiers whose DP needed the exact quadratic
                        backstop on some layer. *)
  evaluations : int;  (** Total [seg_value] evaluations. *)
  p50_ms : float option;  (** [None] before any re-tier. *)
  p99_ms : float option;
  max_ms : float option;
}

val summary : t -> summary

val percentile : float array -> p:float -> float option
(** Nearest-rank percentile of a sorted array ([p] in [\[0, 100\]]).
    [None] on an empty array; a single observation is every quantile of
    itself. Exposed for the tests. *)

type run = {
  records : int;  (** Records ingested (pre-dedup). *)
  dropped_dup : int option;  (** [None] when dedup is disabled. *)
  late : int;
  seq_gaps : int;  (** Wire sequence gaps; [0] for generator streams. *)
  malformed : int;  (** Malformed wire packets/records; likewise. *)
  occupancy : float;  (** Final window occupancy. *)
  wall_s : float;
  records_per_s : float;  (** [records / wall_s]: re-tier time included. *)
  retier_s : float;
      (** Summed wall time of the re-tier calls, from the injected
          clock (the window snapshot before each one counts as ingest). *)
}

val ingest_records_per_s : run -> float
(** Ingest-only throughput, [records / (wall_s - retier_s)]; [0] when
    no ingest time was measured. *)

val report : summary -> run -> Tiered.Report.t

val to_json : summary -> run -> string
(** One flat JSON object ([tiered-cli serve --json]); the schema is
    documented in README.md. *)
