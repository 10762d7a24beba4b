type params = { every_s : int }

type run_result = {
  r_outcomes : Retier.outcome list;
  r_stats : Stats.summary;
  r_run : Stats.run;
  r_flows : int;
}

let run ?on_retier ~clock ?pool ~shards ~retier params ingest =
  if params.every_s < 1 then invalid_arg "Serve.Daemon: every_s < 1";
  let wp = Shards.window_params shards in
  let span_s = wp.Window.bins * wp.Window.bin_s in
  let stats = Stats.create () in
  let outcomes = ref [] in
  let records = ref 0 in
  let occupancy = ref 0. in
  let retier_s = ref 0. in
  let t0 = Clock.now clock in
  (* Re-tier covering all stream time < [at]: advance every shard to
     the bin containing [at - 1] (records at [at] and beyond have not
     been ingested yet), retire dedup keys the window can no longer
     hold, merge and solve. *)
  let retier_at at =
    let bin = Window.bin_of_time wp (float_of_int (at - 1)) in
    let snap = Shards.snapshot ?pool shards ~bin ~retire_s:(at - span_s) in
    occupancy := snap.Window.s_occupancy;
    let t_solve = Clock.now clock in
    let o = Retier.retier retier snap in
    let latency_s = Clock.now clock -. t_solve in
    retier_s := !retier_s +. latency_s;
    Stats.observe stats ~solve:o.Retier.o_solve ~latency_s
      ~evaluations:o.Retier.o_evaluations ~fallback:o.Retier.o_fallback;
    outcomes := o :: !outcomes;
    match on_retier with Some f -> f snap o | None -> ()
  in
  let deadline = ref min_int in
  let last_seen = ref min_int in
  let rec pump () =
    match Ingest.next ingest with
    | None -> ()
    | Some r ->
        incr records;
        let first_s = r.Flowgen.Netflow.first_s in
        if !deadline = min_int then deadline := first_s + params.every_s;
        while first_s >= !deadline do
          retier_at !deadline;
          deadline := !deadline + params.every_s
        done;
        (* [max], not assignment: an out-of-order record must not pull
           the tail re-tier's horizon backwards. *)
        if first_s > !last_seen then last_seen := first_s;
        Shards.observe shards r;
        pump ()
  in
  pump ();
  (* Tail: the deadline loop only fires strictly before a record, so the
     last partial interval is still unposted. *)
  if !last_seen <> min_int then retier_at (!last_seen + 1);
  let wall_s = Clock.now clock -. t0 in
  let seq_gaps, malformed =
    match Ingest.wire_counters ingest with Some c -> c | None -> (0, 0)
  in
  let run =
    {
      Stats.records = !records;
      dropped_dup = Shards.dropped_dup shards;
      late = Shards.late shards;
      seq_gaps;
      malformed;
      shards = Shards.shards shards;
      occupancy = !occupancy;
      wall_s;
      records_per_s =
        (if wall_s > 0. then float_of_int !records /. wall_s else 0.);
      retier_s = !retier_s;
    }
  in
  {
    r_outcomes = List.rev !outcomes;
    r_stats = Stats.summary stats;
    r_run = run;
    r_flows = Shards.flow_count shards;
  }
