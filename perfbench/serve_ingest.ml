(* serve_ingest: a seven-day eu_isp@2000 stream, encoded once to a
   NetFlow v5/IPFIX wire file and replayed from it by fresh processes
   through [Ingest.of_reader] and [Daemon.run] (the `serve --from`
   path) with a daily re-tier. *)

open Common

let network = "eu_isp@2000"
let days = 7
let every_s = 86_400
let wire_file dir = Filename.concat dir "stream.nf"

(* --- set-up ---------------------------------------------------------------- *)

(* Synthesize and encode the stream one day at a time; returns the
   records written. *)
let setup ~seed ~dir =
  let w = Flowgen.Workload.preset network in
  let gt = Flowgen.Workload.to_ground_truth w and churn = Inputs.churn_cohort w in
  let oc = open_out_bin (wire_file dir) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let records = ref 0 in
      for day = 0 to days - 1 do
        let rs = Inputs.day_records ~gt ~churn ~seed ~day in
        records := !records + List.length rs;
        Flowgen.Netflow.Wire.write_channel oc rs
      done;
      [ ("wire.records", float_of_int !records) ])

(* --- measuring process ------------------------------------------------------ *)

let with_wire dir f =
  let ic = open_in_bin (wire_file dir) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> f (Serve.Ingest.of_reader (Flowgen.Netflow.Wire.of_channel ic)))

(* Every posted window against a from-scratch solve of the same window
   (not timed): mismatching windows and the cold solve times. *)
let check_cold retier posted =
  List.fold_left
    (fun (bad, cold_ms) (snap, o) ->
      let c, dt = time (fun () -> Serve.Retier.solve_cold retier snap) in
      ((if Inputs.same (Inputs.posted o) (Inputs.posted c) then bad else bad + 1), (1e3 *. dt) :: cold_ms))
    (0, []) posted

(* One untraced replay through [Daemon.run]; returns its run record
   (whose wall time is [Daemon.run]'s own) and its CPU seconds. *)
let replay w dir =
  let shards = Inputs.make_shards w and retier = Inputs.make_retier w in
  let posted = ref [] in
  let (result, _, cpu), gc =
    gc_delta (fun () ->
        with_wire dir (fun ingest ->
            time_cpu (fun () ->
                Serve.Daemon.run
                  ~on_retier:(fun snap o -> posted := (snap, o) :: !posted)
                  ~clock:(Serve.Clock.of_fn now) ~shards ~retier { Serve.Daemon.every_s } ingest)))
  in
  (result.Serve.Daemon.r_run, cpu, List.rev !posted, retier, gc)

(* The same replay driven layer by layer in [Daemon.run]'s order, each
   layer call timed. Per-record calls ([Ingest.next], [Shards.observe])
   become one aggregate span per re-tier interval. Returns the posted
   windows, the per-layer metrics and the replay's wall time. *)
let traced_replay w dir tr =
  let shards = Inputs.make_shards w and retier = Inputs.make_retier w in
  let totals = Hashtbl.create 8 in
  let total name = Option.value ~default:0. (Hashtbl.find_opt totals name) in
  let book name busy = Hashtbl.replace totals name (total name +. busy) in
  let next_busy = ref 0. and observe_busy = ref 0. in
  let pending_max = ref 0 and posted = ref [] and window = ref 0 in
  let (records, (gaps, malformed)), root_span =
    span tr ~name:"replay" ~id:0 ~parent:(-1) (fun root ->
        with_wire dir (fun ingest ->
            let interval_start = ref (now ()) in
            let next () =
              let t = now () in
              let r = Serve.Ingest.next ingest in
              next_busy := !next_busy +. (now () -. t);
              r
            in
            let observe r =
              let t = now () in
              Serve.Shards.observe shards r;
              observe_busy := !observe_busy +. (now () -. t)
            in
            let layer name f =
              let r, sp = span tr ~name ~id:!window ~parent:root (fun _ -> f ()) in
              book name sp.busy;
              r
            in
            let deadline ~bin ~retire_s =
              let stop = now () in
              List.iter
                (fun (name, busy) ->
                  ignore (add tr { name; id = !window; parent = root; start = !interval_start; stop; busy = !busy });
                  book name !busy;
                  busy := 0.)
                [ ("ingest.next", next_busy); ("shards.observe", observe_busy) ];
              pending_max := max !pending_max (Serve.Shards.pending shards);
              let snap = layer "shards.snapshot" (fun () -> Serve.Shards.snapshot shards ~bin ~retire_s) in
              let o = layer "retier.retier" (fun () -> Serve.Retier.retier retier snap) in
              posted := (snap, o) :: !posted;
              incr window;
              interval_start := now ()
            in
            let records = Inputs.pump ~every_s ~next ~observe ~deadline in
            (records, Option.value ~default:(0, 0) (Serve.Ingest.wire_counters ingest))))
  in
  let posted = List.rev !posted in
  let outcomes = List.map snd posted in
  let fl = float_of_int in
  let layers =
    [
      ("ingest.next_s", total "ingest.next");
      ("shards.observe_s", total "shards.observe");
      ("shards.snapshot_s", total "shards.snapshot");
      ("shards.dropped_dup", fl (Option.value ~default:0 (Serve.Shards.dropped_dup shards)));
      ("shards.flows", fl (Serve.Shards.flow_count shards));
      ("shards.pending_max", fl !pending_max);
      ("wire.records", fl records);
      ("wire.malformed", fl malformed);
      ("wire.seq_gaps", fl gaps);
      ("retier.retier_s", total "retier.retier");
      ("retier.evaluations", fl (List.fold_left (fun acc (o : Serve.Retier.outcome) -> acc + o.Serve.Retier.o_evaluations) 0 outcomes));
      ("retier.fallbacks", fl (List.length (List.filter (fun (o : Serve.Retier.outcome) -> o.Serve.Retier.o_fallback) outcomes)));
    ]
  in
  (posted, layers, root_span.busy)

let digest posted = Digest.to_hex (Digest.string (Marshal.to_string (List.map (fun (_, o) -> Inputs.posted o) posted) []))

(* One measuring process: a replay through [Daemon.run], its peak RSS,
   then the checks. A trace run adds a traced replay whose posted tiers
   must equal the untraced ones bitwise. *)
let measure ~dir ~trace =
  let w = Flowgen.Workload.preset network in
  let run, cpu, posted, retier, gc = replay w dir in
  let rss_mb = peak_rss_mb () in
  let bad, cold_ms = check_cold retier posted in
  let windows = List.length posted in
  let lost = run.Serve.Stats.seq_gaps + run.Serve.Stats.malformed in
  let result =
    {
      empty_result with
      wall_ms = [ 1e3 *. run.Serve.Stats.wall_s ];
      cpu_ms = [ 1e3 *. cpu ];
      items = run.Serve.Stats.records;
      attempted = run.Serve.Stats.records + windows;
      failed = lost + bad;
      rss_mb;
      digest = digest posted;
    }
  in
  if not trace then result
  else begin
    let tr = tracer () in
    let traced, layers, wall = traced_replay w dir tr in
    let diverged = Inputs.mismatches (List.map (fun (_, o) -> Inputs.posted o) posted) (List.map (fun (_, o) -> Inputs.posted o) traced) in
    {
      result with
      traced_ms = [ 1e3 *. wall ];
      failed = result.failed + diverged;
      layers = layers @ [ ("retier.cold_p50_ms", median cold_ms) ] @ gc_metrics gc;
      spans = spans tr;
    }
  end
