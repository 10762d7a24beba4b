(** The serve loop: ingest, dedup, window, re-tier on a cadence.

    Records stream in nondecreasing [first_s] (the {!Ingest} contract)
    into the {!Shards} ingest state — a streaming dedup table and a
    sliding {!Window} ring — and every [every_s] seconds of {e stream}
    time the daemon snapshots the window and posts re-tiered prices
    through {!Retier}. Wall time only feeds the stats (throughput,
    re-tier latency) via the injected {!Clock} — stream time alone
    drives behavior, so runs are deterministic under any clock. *)

type params = { every_s : int  (** Re-tier cadence in stream seconds. *) }

type run_result = {
  r_outcomes : Retier.outcome list;  (** Every re-tier, in order. *)
  r_stats : Stats.summary;
  r_run : Stats.run;
  r_flows : int;  (** Distinct endpoint pairs observed. *)
}

val run :
  ?on_retier:(Window.snapshot -> Retier.outcome -> unit) ->
  clock:Clock.t ->
  shards:Shards.t ->
  retier:Retier.t ->
  params ->
  Ingest.t ->
  run_result
(** Re-tier deadlines sit on the [every_s] grid anchored at the first
    record's [first_s]; a gap spanning several deadlines fires each one
    in turn (catch-up), and one final re-tier always covers the stream
    tail. At every deadline dedup keys older than the window are
    retired. Wire streams contribute their sequence-gap and malformed-packet
    counters to the run record. Raises [Invalid_argument] when
    [every_s < 1]. *)
