(* The streaming pricing service (lib/serve): sliding-window demand,
   streaming ingest, per-window re-tiering on a frozen calibration, and
   the daemon loop. The acceptance property is determinism: posted
   tiers are bitwise what the exact quadratic DP gives on the window's
   rebuilt market, and depend only on the calibration and the window —
   never on the windows before it. *)

open Serve

let ip = Flowgen.Ipv4.of_int

let contains = Fixtures.contains

(* --- Clock -------------------------------------------------------------- *)

let test_manual_clock () =
  let clock, set = Clock.manual ~start:5. () in
  Alcotest.(check (float 0.)) "start" 5. (Clock.now clock);
  set 42.5;
  Alcotest.(check (float 0.)) "set" 42.5 (Clock.now clock)

(* --- Window ------------------------------------------------------------- *)

let wparams ?(bin_s = 10) ?(bins = 6) ?(decay = Window.No_decay) () =
  { Window.bin_s; bins; decay }

let test_window_mean_rate () =
  let p = wparams () in
  let w = Window.create p in
  (* 600 kB in one bin of a 6 x 10 s window: 600e3 * 8 / (60 * 1e6). *)
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:600_000. ~bin:0);
  let s = Window.snapshot w in
  Alcotest.(check int) "one flow" 1 (Array.length s.Window.s_flows);
  Alcotest.(check (float 1e-9)) "mean Mbps" 0.08
    s.Window.s_flows.(0).Window.f_mbps

let test_window_accumulates_and_slides () =
  let w = Window.create (wparams ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:100. ~bin:0);
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:100. ~bin:1);
  let rate_before = (Window.snapshot w).Window.s_flows.(0).Window.f_mbps in
  (* Slide until bin 0 and 1 are out of the window: nothing left. *)
  Window.advance_to w ~bin:7;
  let s = Window.snapshot w in
  Alcotest.(check bool) "had rate" true (rate_before > 0.);
  Alcotest.(check int) "fully decayed flow omitted" 0
    (Array.length s.Window.s_flows);
  (* The flow table still remembers the pair (uid stability). *)
  Alcotest.(check int) "flow count" 1 (Window.flow_count w)

let test_window_late_drop () =
  let w = Window.create (wparams ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1. ~bin:10);
  let kept = Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:1. ~bin:4 in
  Alcotest.(check bool) "late dropped" false kept;
  Alcotest.(check int) "late counted" 1 (Window.late w);
  (* Oldest in-window bin is still accepted. *)
  let kept = Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:1. ~bin:5 in
  Alcotest.(check bool) "in-window kept" true kept

let test_window_ring_reuse () =
  (* A slot reused after a full wrap must not leak old bytes. *)
  let w = Window.create (wparams ~bins:4 ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1000. ~bin:0);
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:24. ~bin:4);
  (* bin 4 maps to slot 0; the 1000 bytes of bin 0 must be gone. *)
  let s = Window.snapshot w in
  let expect = 24. *. 8. /. (4. *. 10. *. 1e6) in
  Alcotest.(check (float 1e-12)) "only new bytes" expect
    s.Window.s_flows.(0).Window.f_mbps

let test_window_lagging_flow () =
  (* Regression for the ring-index arithmetic (window.ml [pmod]): a
     flow that lags the window by more than a full wrap must have every
     stale slot zeroed on catch-up — both when it reappears and when
     the snapshot catches it up in place — with no out-of-range index
     on the way. *)
  let w = Window.create (wparams ~bins:4 ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1000. ~bin:0);
  (* Another flow drags the window far ahead; flow 0 lags > bins. *)
  ignore (Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:40. ~bin:9);
  (* Flow 0 reappears: its whole ring predates the window, so only the
     fresh bytes may count. *)
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:24. ~bin:9);
  let s = Window.snapshot w in
  let rate u =
    (Array.to_list s.Window.s_flows
    |> List.find (fun f -> f.Window.f_uid = u))
      .Window.f_mbps
  in
  let expect = 24. *. 8. /. (4. *. 10. *. 1e6) in
  Alcotest.(check (float 1e-12)) "stale bytes zeroed" expect (rate 0);
  (* And a flow that stops sending is caught up lazily by the snapshot
     itself, far past a full wrap, without leaking its old bytes. *)
  Window.advance_to w ~bin:20;
  let s = Window.snapshot w in
  Alcotest.(check int) "lagging flows fully retired" 0
    (Array.length s.Window.s_flows)

let test_window_exponential_decay () =
  let decay = Window.Exponential { half_life_bins = 1. } in
  let w = Window.create (wparams ~decay ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:64. ~bin:0);
  ignore (Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:64. ~bin:2);
  Window.advance_to w ~bin:2;
  let s = Window.snapshot w in
  let rate u =
    let r =
      Array.to_list s.Window.s_flows
      |> List.find (fun f -> f.Window.f_uid = u)
    in
    r.Window.f_mbps
  in
  (* Same bytes, two bins apart, half-life one bin: 4x ratio. *)
  Alcotest.(check (float 1e-9)) "half-life ratio" 4. (rate 1 /. rate 0)

let test_window_diurnal_weights () =
  let decay = Window.Diurnal { amplitude = 0.5; peak_bin = 2 } in
  let w = Window.create (wparams ~bins:4 ~decay ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:100. ~bin:2);
  ignore (Window.observe w ~src:(ip 3) ~dst:(ip 4) ~bytes:100. ~bin:3);
  Window.advance_to w ~bin:3;
  let s = Window.snapshot w in
  let peak = s.Window.s_flows.(0).Window.f_mbps in
  let off = s.Window.s_flows.(1).Window.f_mbps in
  (* Peak-bin bytes weigh 1 + 0.5, the quarter-cycle bin 1.0. *)
  Alcotest.(check (float 1e-9)) "peak emphasis" 1.5 (peak /. off)

let test_window_occupancy () =
  let w = Window.create (wparams ~bins:4 ()) in
  ignore (Window.observe w ~src:(ip 1) ~dst:(ip 2) ~bytes:1. ~bin:0);
  Alcotest.(check (float 1e-9)) "one bin" 0.25
    (Window.snapshot w).Window.s_occupancy;
  Window.advance_to w ~bin:9;
  Alcotest.(check (float 1e-9)) "capped" 1.
    (Window.snapshot w).Window.s_occupancy

let test_window_validation () =
  let check name p =
    Alcotest.check_raises name (Invalid_argument "") (fun () ->
        try ignore (Window.create p) with Invalid_argument _ ->
          raise (Invalid_argument ""))
  in
  check "bins" (wparams ~bins:0 ());
  check "bin_s" (wparams ~bin_s:0 ());
  check "half-life"
    (wparams ~decay:(Window.Exponential { half_life_bins = 0. }) ());
  check "amplitude"
    (wparams ~decay:(Window.Diurnal { amplitude = 1.5; peak_bin = 0 }) ())

(* --- Ingest ------------------------------------------------------------- *)

let small_workload =
  lazy
    (Flowgen.Workload.generate
       (Netsim.Presets.eu_isp ())
       {
         Flowgen.Workload.n_flows = 60;
         aggregate_gbps = 2.;
         locality_scale = 50.;
         locality_spread = 1.0;
         demand_cv = 1.0;
         demand_distance_exponent = 1.0;
         local_tail_miles = 30.;
         on_net_fraction = 0.5;
         distance_mode = `Path;
         seed = 77;
       })

let test_ingest_sorted_and_replayed () =
  let w = Lazy.force small_workload in
  let ing = Ingest.of_workload ~days:2 ~seed:3 w in
  let rec drain acc last n =
    match Ingest.next ing with
    | None -> (acc, n)
    | Some r ->
        Alcotest.(check bool) "nondecreasing" true
          (r.Flowgen.Netflow.first_s >= last);
        drain (acc + r.Flowgen.Netflow.first_s) r.Flowgen.Netflow.first_s
          (n + 1)
    | exception e -> raise e
  in
  let _, n = drain 0 min_int 0 in
  Alcotest.(check (option int)) "both days yielded" (Some n) (Ingest.total ing);
  Alcotest.(check bool) "two days of records" true (n > 0 && n mod 2 = 0)

let test_ingest_day_shift () =
  let w = Lazy.force small_workload in
  let one = Ingest.of_workload ~days:1 ~seed:3 w in
  let two = Ingest.of_workload ~days:2 ~seed:3 w in
  let day1 = ref [] in
  let rec skip_day1 () =
    match Ingest.next two with
    | Some r when r.Flowgen.Netflow.first_s < Flowgen.Netflow.day_seconds ->
        skip_day1 ()
    | other -> other
  in
  let rec drain1 () =
    match Ingest.next one with
    | Some r ->
        day1 := r :: !day1;
        drain1 ()
    | None -> ()
  in
  drain1 ();
  (* First record of day 2 is the first template record, shifted. *)
  let first_template = List.nth (List.rev !day1) 0 in
  match skip_day1 () with
  | Some r ->
      Alcotest.(check int) "shifted by a day"
        (first_template.Flowgen.Netflow.first_s + Flowgen.Netflow.day_seconds)
        r.Flowgen.Netflow.first_s;
      Alcotest.(check (float 0.)) "same bytes"
        first_template.Flowgen.Netflow.bytes r.Flowgen.Netflow.bytes
  | None -> Alcotest.fail "day 2 missing"

(* Hand-forged wire-shaped records for the sequence/daemon tests. *)
let rec_ ?(router = 0) ?(src_port = 1000) ?(dst_port = 80) ~src ~dst ~bytes
    ~first_s () =
  {
    Flowgen.Netflow.src = ip src;
    dst = ip dst;
    src_port;
    dst_port;
    proto = 6;
    bytes;
    packets = 1.;
    first_s;
    last_s = first_s + 1;
    router;
  }

let test_ingest_sequence_verbatim () =
  (* [of_sequence] must preserve the given order — it exists precisely
     so the tests can feed out-of-order streams. *)
  let records =
    [
      rec_ ~src:1 ~dst:101 ~bytes:10. ~first_s:20 ();
      rec_ ~src:2 ~dst:102 ~bytes:10. ~first_s:5 ();
      rec_ ~src:3 ~dst:103 ~bytes:10. ~first_s:12 ();
    ]
  in
  let ing = Ingest.of_sequence records in
  Alcotest.(check (option int)) "total known" (Some 3) (Ingest.total ing);
  let order = ref [] in
  let rec drain () =
    match Ingest.next ing with
    | Some r ->
        order := r.Flowgen.Netflow.first_s :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "verbatim order" [ 20; 5; 12 ]
    (List.rev !order);
  Alcotest.(check bool) "no wire counters" true
    (Ingest.wire_counters ing = None)

let test_ingest_wire_reader () =
  (* A wire-backed ingest decodes the same records the encoder was
     given (normalized) and exposes the decoder's counters. *)
  let records =
    [
      rec_ ~src:1 ~dst:101 ~bytes:1500. ~first_s:3 ();
      rec_ ~src:2 ~dst:102 ~bytes:250. ~first_s:7 ();
    ]
  in
  let wire = String.concat "" (Flowgen.Netflow.Wire.encode records) in
  let ing = Ingest.of_reader (Flowgen.Netflow.Wire.of_string wire) in
  Alcotest.(check (option int)) "length unknown up front" None
    (Ingest.total ing);
  let got = ref [] in
  let rec drain () =
    match Ingest.next ing with
    | Some r ->
        got := r :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  let expect = List.map Flowgen.Netflow.Wire.normalize records in
  Alcotest.(check int) "all decoded" (List.length expect) (List.length !got);
  List.iter2
    (fun (a : Flowgen.Netflow.record) b ->
      Alcotest.(check int) "first_s" a.Flowgen.Netflow.first_s
        b.Flowgen.Netflow.first_s;
      Alcotest.(check (float 0.)) "bytes" a.Flowgen.Netflow.bytes
        b.Flowgen.Netflow.bytes)
    expect (List.rev !got);
  Alcotest.(check (option (pair int int))) "clean stream" (Some (0, 0))
    (Ingest.wire_counters ing)

(* --- Stats -------------------------------------------------------------- *)

let test_percentile_nearest_rank () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  let check_q name expect got =
    Alcotest.(check (option (float 0.))) name expect got
  in
  check_q "p50" (Some 5.) (Stats.percentile a ~p:50.);
  check_q "p99" (Some 10.) (Stats.percentile a ~p:99.);
  check_q "p0" (Some 1.) (Stats.percentile a ~p:0.);
  (* An empty histogram has no quantiles — not a sentinel zero. *)
  check_q "empty" None (Stats.percentile [||] ~p:50.);
  (* A single observation is every quantile of itself. *)
  check_q "n=1 p50" (Some 7.) (Stats.percentile [| 7. |] ~p:50.);
  check_q "n=1 p99" (Some 7.) (Stats.percentile [| 7. |] ~p:99.)

let test_stats_rates () =
  let s = Stats.create () in
  Stats.observe s ~latency_s:0.002 ~evaluations:10 ~fallback:false;
  Stats.observe s ~latency_s:0.001 ~evaluations:5 ~fallback:false;
  Stats.observe s ~latency_s:0.0005 ~evaluations:0 ~fallback:false;
  Stats.observe s ~latency_s:0.0001 ~evaluations:0 ~fallback:false;
  Stats.observe s ~latency_s:0.003 ~evaluations:12 ~fallback:true;
  let sum = Stats.summary s in
  Alcotest.(check int) "retiers" 5 sum.Stats.retiers;
  Alcotest.(check int) "fallbacks" 1 sum.Stats.fallbacks;
  Alcotest.(check int) "evaluations" 27 sum.Stats.evaluations;
  Alcotest.(check (option (float 1e-9))) "p50" (Some 1.) sum.Stats.p50_ms;
  Alcotest.(check (option (float 1e-9))) "p99 = max" sum.Stats.max_ms
    sum.Stats.p99_ms

let test_stats_absent_vs_zero () =
  (* Quantiles of nothing and dedup-off both serialize as JSON null —
     a 0 would read as "instant re-tiers" / "no duplicates". *)
  let empty = Stats.summary (Stats.create ()) in
  Alcotest.(check (option (float 0.))) "no p50" None empty.Stats.p50_ms;
  Alcotest.(check (option (float 0.))) "no max" None empty.Stats.max_ms;
  let run =
    {
      Stats.records = 10;
      dropped_dup = None;
      late = 0;
      seq_gaps = 0;
      malformed = 0;
      occupancy = 1.;
      wall_s = 0.5;
      records_per_s = 20.;
      retier_s = 0.25;
    }
  in
  let j = Stats.to_json empty run in
  (* Ingest-only throughput leaves the re-tier wall out: 10 / 0.25. *)
  Alcotest.(check (float 1e-9)) "ingest rate" 40. (Stats.ingest_records_per_s run);
  Alcotest.(check bool) "ingest rate in JSON" true
    (contains j {|"ingest_records_per_s": 40.0|});
  Alcotest.(check bool) "retier_s in JSON" true (contains j {|"retier_s": 0.2500|});
  Alcotest.(check (float 0.)) "no ingest time, no rate" 0.
    (Stats.ingest_records_per_s { run with Stats.retier_s = 0.5 });
  Alcotest.(check bool) "dedup off is null" true
    (contains j {|"dropped_dup": null|});
  Alcotest.(check bool) "empty quantile is null" true
    (contains j {|"p50_retier_ms": null|});
  (* One observation: every quantile is that sample, and JSON carries
     numbers again. *)
  let s1 = Stats.create () in
  Stats.observe s1 ~latency_s:0.004 ~evaluations:1 ~fallback:false;
  let sum1 = Stats.summary s1 in
  Alcotest.(check (option (float 1e-9))) "n=1 p50 = sample" (Some 4.)
    sum1.Stats.p50_ms;
  Alcotest.(check (option (float 1e-9))) "n=1 p99 = p50" sum1.Stats.p50_ms
    sum1.Stats.p99_ms;
  let j1 =
    Stats.to_json sum1 { run with Stats.dropped_dup = Some 0 }
  in
  Alcotest.(check bool) "dedup on is a number" true
    (contains j1 {|"dropped_dup": 0|})

(* --- Retier on hand-crafted snapshots ----------------------------------- *)

(* A tiny synthetic universe: 8 flows with distinct distances, metadata
   keyed by endpoint pair, demands set per test. *)
let universe_n = 8

let meta_of src dst =
  let s = Flowgen.Ipv4.to_int src and d = Flowgen.Ipv4.to_int dst in
  if d = 999 then None
  else if s >= 1 && s <= universe_n && d = 100 + s then
    Some
      {
        Retier.m_id = s - 1;
        m_distance_miles = 20. +. (60. *. float_of_int s);
        m_locality = (if s <= 4 then Tiered.Flow.National else Tiered.Flow.International);
        m_on_net = s mod 2 = 0;
      }
  else None

let snap_of ?(bin = 0) demands =
  let flows =
    List.mapi
      (fun i q ->
        { Window.f_src = ip (i + 1); f_dst = ip (100 + i + 1); f_uid = i; f_mbps = q })
      demands
    |> List.filter (fun f -> f.Window.f_mbps > 0.)
  in
  {
    Window.s_bin = bin;
    s_flows = Array.of_list flows;
    s_occupancy = 1.;
    s_late = 0;
  }

let rparams ?(spec = Tiered.Market.Ced) ?(n_bundles = 3) () =
  {
    Retier.spec;
    alpha = 2.0;
    p0 = 30.;
    n_bundles;
    cost_model = Tiered.Cost_model.concave ~theta:0.5;
    samples = 8;
    cold_every = 0;
    use_cache = false;
  }

let base_demands = [ 40.; 25.; 9.; 31.; 5.; 17.; 52.; 3. ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_posting (a : Retier.outcome) (b : Retier.outcome) =
  a.Retier.o_n_flows = b.Retier.o_n_flows
  && List.equal Int.equal a.Retier.o_cuts b.Retier.o_cuts
  && Array.length a.Retier.o_prices = Array.length b.Retier.o_prices
  && Array.for_all2 same_bits a.Retier.o_prices b.Retier.o_prices
  && same_bits a.Retier.o_profit b.Retier.o_profit

(* The reference posting for a window: the exact quadratic DP on the
   market the re-tier solved, priced by [Pricing.evaluate]. *)
let quadratic_posting ~n_bundles t snap (o : Retier.outcome) =
  match Retier.market t snap with
  | None -> { o with Retier.o_n_flows = 0; o_cuts = []; o_prices = [||]; o_profit = 0. }
  | Some m ->
      let order, seg_value, _ = Tiered.Strategy.dp_inputs m in
      let n = Tiered.Market.n_flows m in
      let q = Numerics.Segdp.solve_quadratic ~n ~n_bundles seg_value in
      let cuts = q.Numerics.Segdp.cuts in
      let priced =
        Tiered.Pricing.evaluate m (Tiered.Bundle.contiguous ~order ~cuts)
      in
      {
        o with
        Retier.o_n_flows = n;
        o_cuts = cuts;
        o_prices = priced.Tiered.Pricing.bundle_prices;
        o_profit = priced.Tiered.Pricing.profit;
      }

let check_matches_quadratic ?(n_bundles = 3) t snap (o : Retier.outcome) =
  Alcotest.(check bool) "posting = quadratic DP" true
    (same_posting o (quadratic_posting ~n_bundles t snap o))

let test_retier_empty_window () =
  let t = Retier.create (rparams ()) ~meta_of in
  let o = Retier.retier t (snap_of []) in
  Alcotest.(check int) "no flows" 0 o.Retier.o_n_flows;
  Alcotest.(check (list int)) "no cuts" [] o.Retier.o_cuts;
  Alcotest.(check bool) "not calibrated" false (Retier.calibrated t)

let test_retier_skips_unknown_endpoints () =
  let t = Retier.create (rparams ()) ~meta_of in
  let snap = snap_of base_demands in
  let unknown =
    { Window.f_src = ip 50; f_dst = ip 999; f_uid = 99; f_mbps = 7. }
  in
  let snap =
    { snap with Window.s_flows = Array.append snap.Window.s_flows [| unknown |] }
  in
  let o = Retier.retier t snap in
  Alcotest.(check int) "skipped" 1 o.Retier.o_skipped;
  Alcotest.(check int) "priced the rest" universe_n o.Retier.o_n_flows

let test_retier_rejects_linear () =
  Alcotest.check_raises "linear rejected" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Retier.create
             (rparams ~spec:(Tiered.Market.Linear { epsilon = 1.2 }) ())
             ~meta_of)
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* --- Retier differential property ---------------------------------------- *)

(* A wider universe than [meta_of]'s: distances repeat every 13 ids, so
   equal-cost flows exercise the (cost, id) presort. *)
let wide_n = 40

let wide_meta_of src dst =
  let s = Flowgen.Ipv4.to_int src and d = Flowgen.Ipv4.to_int dst in
  if s >= 1 && s <= wide_n && d = 1000 + s then
    Some
      {
        Retier.m_id = s - 1;
        m_distance_miles = 20. +. (75. *. float_of_int (s mod 13));
        m_locality =
          (if s mod 3 = 0 then Tiered.Flow.International else Tiered.Flow.National);
        m_on_net = s mod 2 = 0;
      }
  else None

let wide_snap ~bin demands =
  let flows =
    List.init wide_n Fun.id
    |> List.filter_map (fun i ->
           if demands.(i) > 0. then
             Some
               { Window.f_src = ip (i + 1); f_dst = ip (1000 + i + 1); f_uid = i; f_mbps = demands.(i) }
           else None)
  in
  { Window.s_bin = bin; s_flows = Array.of_list flows; s_occupancy = 1.; s_late = 0 }

type window_op =
  | Jitter of int  (* every present flow's demand moves by up to ±25% *)
  | Bump of int * float  (* one present flow's demand grows *)
  | Arrive of int * float  (* one absent flow appears *)
  | Depart of int  (* one present flow disappears (never the last) *)
  | Repeat  (* the identical window again *)

let show_op = function
  | Jitter k -> Printf.sprintf "Jitter %d" k
  | Bump (i, d) -> Printf.sprintf "Bump (%d, %h)" i d
  | Arrive (i, q) -> Printf.sprintf "Arrive (%d, %h)" i q
  | Depart i -> Printf.sprintf "Depart %d" i
  | Repeat -> "Repeat"

(* First index at or after [i] (cyclically) whose demand satisfies [p]. *)
let find_from demands i p =
  let rec go k =
    if k = wide_n then None
    else
      let j = (i + k) mod wide_n in
      if p demands.(j) then Some j else go (k + 1)
  in
  go 0

let apply_op demands op =
  let a = Array.copy demands in
  let present q = q > 0. in
  (match op with
  | Jitter k ->
      Array.iteri
        (fun i q ->
          if present q then
            a.(i) <- q *. (1. +. (float_of_int (((k + (7 * i)) mod 11) - 5) /. 20.)))
        demands
  | Bump (i, d) -> (
      match find_from a i present with Some j -> a.(j) <- a.(j) +. d | None -> ())
  | Arrive (i, q) -> (
      match find_from a i (fun q -> not (present q)) with
      | Some j -> a.(j) <- q
      | None -> ())
  | Depart i ->
      if List.length (List.filter present (Array.to_list a)) > 1 then
        Option.iter (fun j -> a.(j) <- 0.) (find_from a i present)
  | Repeat -> ());
  a

let window_seq_arb =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (3, map (fun k -> Jitter k) (int_bound 1000));
          (2, map2 (fun i d -> Bump (i, d)) (int_bound 1000) (float_range 0.5 40.));
          (2, map2 (fun i q -> Arrive (i, q)) (int_bound 1000) (float_range 1. 60.));
          (2, map (fun i -> Depart i) (int_bound 1000));
          (1, return Repeat);
        ])
  in
  let first =
    Gen.(array_size (return wide_n) (frequency [ (1, return 0.); (4, float_range 1. 60.) ]))
  in
  make
    ~print:(fun (logit, first, ops) ->
      Printf.sprintf "logit=%b first=[%s] ops=[%s]" logit
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") first)))
        (String.concat "; " (List.map show_op ops)))
    Gen.(triple bool first (list_size (1 -- 10) op))

let prop_retier_differential =
  QCheck.Test.make ~count:60
    ~name:"retier = quadratic DP = fresh instance, over window sequences"
    window_seq_arb
    (fun (logit, first, ops) ->
      let spec =
        if logit then Tiered.Market.Logit { s0 = 0.3 } else Tiered.Market.Ced
      in
      let params = rparams ~spec () in
      let first = Array.copy first in
      if Array.for_all (fun q -> q = 0.) first then first.(0) <- 10.;
      let windows =
        List.rev
          (List.fold_left (fun acc op -> apply_op (List.hd acc) op :: acc) [ first ] ops)
      in
      let t = Retier.create params ~meta_of:wide_meta_of in
      List.for_all
        (fun (bin, demands) ->
          let snap = wide_snap ~bin demands in
          let o = Retier.retier t snap in
          (* A fresh instance calibrated on the same first window. *)
          let fresh = Retier.create params ~meta_of:wide_meta_of in
          ignore (Retier.retier fresh (wide_snap ~bin:0 first));
          same_posting o (Retier.retier fresh snap)
          && same_posting o (quadratic_posting ~n_bundles:params.Retier.n_bundles t snap o))
        (List.mapi (fun bin d -> (bin, d)) windows))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Window] against a reference keyed by a polymorphic [Hashtbl] on
   the endpoint pair, as the window's own index was before it got a
   typed hash. Endpoint pairs differ from a base pair in exactly one
   endpoint, by a little or a lot. Byte counts are integers, so with no
   decay every in-window sum is exact in any order and the reference
   rate [bytes * 8 / (bins * bin_s * 1e6)] must match bit for bit, as
   must uids (first appearance), late drops and the flow count. *)
let prop_window_matches_reference =
  (* 64 pairs, enough to share hash buckets: deltas 0-11, then powers
     of two from 2^8 up. *)
  let pair_of i =
    let k = i mod 32 in
    let d = if k < 12 then k else 1 lsl (k - 4) in
    if i < 32 then (0x0A000001 + d, 0x0B000001) else (0x0A000001, 0x0B000001 + d)
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (8, map3 (fun p dbin b -> `Observe (p, dbin, b)) (0 -- 63) (-3 -- 2) (1 -- 5000));
          (1, map (fun d -> `Advance d) (0 -- 4));
          (1, return `Snapshot);
        ])
  in
  QCheck.Test.make ~name:"Window = polymorphic-Hashtbl reference on near pairs, bitwise"
    ~count:300
    (QCheck.make ~print:(fun (bins, ops) -> Printf.sprintf "bins=%d, %d ops" bins (List.length ops))
       QCheck.Gen.(pair (1 -- 6) (list_size (0 -- 120) gen_op)))
    (fun (bins, ops) ->
      let wp = { Window.bin_s = 10; bins; decay = Window.No_decay } in
      let w = Window.create ~expected:1 wp in
      (* Reference: pair -> (uid, bin -> bytes), late count, current bin. *)
      let index : (int * int, int * (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
      let uids = ref [] and late = ref 0 and cur = ref (-1) and at = ref 0 in
      let ref_snapshot () =
        List.filter_map
          (fun (src, dst) ->
            let uid, per_bin = Hashtbl.find index (src, dst) in
            let total = ref 0 in
            for b = Stdlib.max 0 (!cur - bins + 1) to !cur do
              total := !total + Option.value ~default:0 (Hashtbl.find_opt per_bin b)
            done;
            let mbps = float_of_int !total *. 8. /. (float_of_int bins *. 10. *. 1e6) in
            if mbps > 0. then Some (src, dst, uid, mbps) else None)
          (List.rev !uids)
      in
      let check_snapshot () =
        let got =
          Array.to_list
            (Array.map
               (fun (f : Window.flow_rate) ->
                 (Flowgen.Ipv4.to_int f.f_src, Flowgen.Ipv4.to_int f.f_dst, f.f_uid, f.f_mbps))
               (Window.snapshot w).Window.s_flows)
        in
        let want = ref_snapshot () in
        List.length got = List.length want
        && List.for_all2
             (fun (s, d, u, m) (s', d', u', m') -> s = s' && d = d' && u = u' && bits_equal m m')
             got want
      in
      List.for_all
        (fun op ->
          (match op with
          | `Observe (p, dbin, bytes) ->
              at := Stdlib.max 0 (!at + dbin);
              let src, dst = pair_of p in
              let kept =
                Window.observe w ~src:(ip src) ~dst:(ip dst) ~bytes:(float_of_int bytes) ~bin:!at
              in
              if !at > !cur then cur := !at;
              let ref_kept = !at > !cur - bins in
              if ref_kept then begin
                let per_bin =
                  match Hashtbl.find_opt index (src, dst) with
                  | Some (_, t) -> t
                  | None ->
                      let t = Hashtbl.create 4 in
                      Hashtbl.add index (src, dst) (List.length !uids, t);
                      uids := (src, dst) :: !uids;
                      t
                in
                Hashtbl.replace per_bin !at
                  (bytes + Option.value ~default:0 (Hashtbl.find_opt per_bin !at))
              end
              else incr late;
              Bool.equal kept ref_kept
          | `Advance d ->
              Window.advance_to w ~bin:(!cur + d);
              if !cur + d > !cur then cur := !cur + d;
              true
          | `Snapshot -> check_snapshot ())
          && Window.late w = !late
          && Window.flow_count w = List.length !uids)
        ops
      && check_snapshot ())

(* Eager [Shards] against the buffered formulation it replaced, which
   kept every record until the snapshot and only then replayed them
   through dedup + window, advanced, retired and snapshotted. Streams
   carry router duplicates, late and out-of-order records, and flow
   churn (the active flow set drifts with time); the snapshots must
   agree bit for bit. *)
module Buffered = struct
  type t = {
    wp : Window.params;
    dd : Flowgen.Dedup.Stream.t option;
    win : Window.t;
    mutable pending : Flowgen.Netflow.record list;  (* reverse order *)
  }

  let create ~dedup wp =
    {
      wp;
      dd = (if dedup then Some (Flowgen.Dedup.Stream.create ()) else None);
      win = Window.create wp;
      pending = [];
    }

  let observe t r = t.pending <- r :: t.pending

  let snapshot t ~bin ~retire_s =
    List.iter
      (fun (r : Flowgen.Netflow.record) ->
        let keep = match t.dd with None -> true | Some dd -> Flowgen.Dedup.Stream.observe dd r in
        if keep then
          ignore
            (Window.observe t.win ~src:r.src ~dst:r.dst ~bytes:r.bytes
               ~bin:(Window.bin_of_time t.wp (float_of_int r.first_s))))
      (List.rev t.pending);
    t.pending <- [];
    Window.advance_to t.win ~bin;
    Option.iter (fun dd -> Flowgen.Dedup.Stream.forget_before dd ~first_s:retire_s) t.dd;
    Window.snapshot t.win

  let dropped t = Option.fold ~none:0 ~some:Flowgen.Dedup.Stream.dropped t.dd
end

let same_snapshot (a : Window.snapshot) (b : Window.snapshot) =
  a.s_bin = b.s_bin && a.s_late = b.s_late
  && bits_equal a.s_occupancy b.s_occupancy
  && Array.length a.s_flows = Array.length b.s_flows
  && Array.for_all2
       (fun (f : Window.flow_rate) (g : Window.flow_rate) ->
         Flowgen.Ipv4.equal f.f_src g.f_src && Flowgen.Ipv4.equal f.f_dst g.f_dst
         && f.f_uid = g.f_uid && bits_equal f.f_mbps g.f_mbps)
       a.s_flows b.s_flows

type step =
  | Record of { flow : int; dt : int; routers : int; lag : int; bytes : float }
  | Snapshot

let gen_step =
  QCheck.Gen.(
    frequency
      [
        ( 9,
          let* flow = 0 -- 7
          and* dt = frequency [ (3, return 0); (4, 1 -- 8); (1, 20 -- 90) ]
          and* routers = 1 -- 3
          and* lag = frequency [ (8, return 0); (1, 1 -- 30); (1, 40 -- 120) ]
          and* bytes = float_range 1. 1e6 in
          return (Record { flow; dt; routers; lag; bytes }) );
        (1, return Snapshot);
      ])

let gen_decay =
  QCheck.Gen.(
    oneof
      [
        return Window.No_decay;
        map (fun h -> Window.Exponential { half_life_bins = h }) (float_range 0.5 4.);
        map2
          (fun a p -> Window.Diurnal { amplitude = a; peak_bin = p })
          (float_range 0. 1.) (0 -- 5);
      ])

let prop_shards_eager_matches_buffered =
  QCheck.Test.make ~name:"eager Shards = buffered replay at snapshot, bitwise"
    ~count:300
    (QCheck.make
       ~print:(fun (bins, _, dedup, steps) ->
         Printf.sprintf "bins=%d dedup=%b, %d steps" bins dedup (List.length steps))
       QCheck.Gen.(
         quad (1 -- 6) gen_decay bool (list_size (0 -- 150) gen_step)))
    (fun (bins, decay, dedup, steps) ->
      let wp = { Window.bin_s = 10; bins; decay } in
      let span = bins * 10 in
      let eager = Shards.create ~expected:4 ~shards:1 ~dedup wp in
      let buffered = Buffered.create ~dedup wp in
      let now = ref 0 in
      let agree = ref true in
      let snap () =
        let bin = Window.bin_of_time wp (float_of_int !now) and retire_s = !now - span in
        let a = Shards.snapshot eager ~bin ~retire_s in
        let b = Buffered.snapshot buffered ~bin ~retire_s in
        if not (same_snapshot a b) then agree := false
      in
      List.iter
        (function
          | Snapshot -> snap ()
          | Record { flow; dt; routers; lag; bytes } ->
              now := !now + dt;
              (* Churn: the active flow ids drift one per 50 s, so
                 flows arrive and depart over the stream. *)
              let id = flow + (!now / 50) in
              let first_s = Stdlib.max 0 (!now - lag) in
              for router = 0 to routers - 1 do
                let r =
                  rec_ ~router ~src_port:(1000 + (id mod 3))
                    ~src:((((id * 7) mod 23) lsl 8) lor (id land 0xFF))
                    ~dst:((((id * 5) mod 19) + 40) lsl 8)
                    ~bytes ~first_s ()
                in
                Shards.observe eager r;
                Buffered.observe buffered r
              done)
        steps;
      snap ();
      !agree
      && Shards.pending eager = 0
      && Option.value ~default:0 (Shards.dropped_dup eager) = Buffered.dropped buffered)

(* --- Daemon end-to-end: posted tiers = quadratic DP over a multi-day run -- *)

let serve_wp = { Window.bin_s = 3600; bins = 24; decay = Window.No_decay }

let serve_retier w =
  Retier.create
    {
      Retier.spec = Tiered.Market.Ced;
      alpha = 2.0;
      p0 = 30.;
      n_bundles = 4;
      cost_model = Tiered.Cost_model.concave ~theta:0.5;
      samples = 8;
      cold_every = 0;
      use_cache = false;
    }
    ~meta_of:(Retier.meta_of_workload w)

let test_daemon_determinism () =
  let w = Lazy.force small_workload in
  let retier = serve_retier w in
  let shards = Shards.create ~shards:1 ~dedup:true serve_wp in
  let clock, _set = Clock.manual () in
  let windows = ref 0 in
  let result =
    Daemon.run
      ~on_retier:(fun snap o ->
        incr windows;
        check_matches_quadratic ~n_bundles:4 retier snap o)
      ~clock ~shards ~retier
      { Daemon.every_s = 3600 }
      (Ingest.of_workload ~days:3 ~seed:11 w)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 20 windows (got %d)" !windows)
    true (!windows >= 20);
  let s = result.Daemon.r_stats in
  Alcotest.(check int) "every window posted" !windows s.Stats.retiers;
  Alcotest.(check bool) "duplicates were suppressed" true
    (match result.Daemon.r_run.Stats.dropped_dup with
    | Some d -> d > 0
    | None -> false);
  Alcotest.(check int) "no late drops" 0 result.Daemon.r_run.Stats.late

(* From the wire to posted tiers: two days of eu_isp@300 NetFlow, with
   every 11th flow dark on odd days so the window's flow set churns, are
   written as a binary NetFlow v5/IPFIX file and replayed through the
   framed reader and the daemon. Every posted window must equal the
   exact quadratic DP on its market, bitwise. *)
let test_daemon_wire_replay () =
  let w = Flowgen.Workload.preset "eu_isp@300" in
  let template =
    let rng = Numerics.Rng.create 11 in
    List.stable_sort
      (fun (a : Flowgen.Netflow.record) b ->
        Int.compare a.Flowgen.Netflow.first_s b.Flowgen.Netflow.first_s)
      (Flowgen.Netflow.synthesize ~rng (Flowgen.Workload.to_ground_truth w))
  in
  let pair src dst = (Flowgen.Ipv4.to_int src, Flowgen.Ipv4.to_int dst) in
  let churn = Hashtbl.create 64 in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      if f.Flowgen.Workload.id mod 11 = 0 then
        Hashtbl.replace churn
          (pair f.Flowgen.Workload.src_addr f.Flowgen.Workload.dst_addr)
          ())
    w.Flowgen.Workload.flows;
  let stream =
    List.concat_map
      (fun day ->
        let shift = day * Flowgen.Netflow.day_seconds in
        List.filter_map
          (fun (r : Flowgen.Netflow.record) ->
            if day mod 2 = 1
               && Hashtbl.mem churn (pair r.Flowgen.Netflow.src r.Flowgen.Netflow.dst)
            then None
            else
              Some
                {
                  r with
                  Flowgen.Netflow.first_s = r.Flowgen.Netflow.first_s + shift;
                  last_s = r.Flowgen.Netflow.last_s + shift;
                })
          template)
      [ 0; 1 ]
  in
  let file = Filename.temp_file "test_serve_replay" ".nf" in
  let retier = serve_retier w in
  let shards = Shards.create ~expected:300 ~shards:1 ~dedup:true serve_wp in
  let clock, _ = Clock.manual () in
  let windows = ref 0 in
  let result =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Flowgen.Netflow.Wire.write_file file stream;
        In_channel.with_open_bin file (fun ic ->
            Daemon.run
              ~on_retier:(fun snap o ->
                incr windows;
                check_matches_quadratic ~n_bundles:4 retier snap o)
              ~clock ~shards ~retier
              { Daemon.every_s = 3600 }
              (Ingest.of_reader (Flowgen.Netflow.Wire.of_channel ic))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 40 windows (got %d)" !windows)
    true (!windows >= 40);
  Alcotest.(check int) "every window checked" result.Daemon.r_stats.Stats.retiers
    !windows;
  let run = result.Daemon.r_run in
  Alcotest.(check int) "every record decoded" (List.length stream) run.Stats.records;
  Alcotest.(check bool) "duplicates were dropped" true
    (match run.Stats.dropped_dup with Some d -> d > 0 | None -> false);
  Alcotest.(check int) "no malformed packets" 0 run.Stats.malformed;
  Alcotest.(check int) "no sequence gaps" 0 run.Stats.seq_gaps

let test_daemon_out_of_order () =
  (* Out-of-order arrivals (dedup off — its contract needs ordered
     input): the tail horizon must not be pulled backwards by a late
     record, and every posted window still matches from-scratch. *)
  let records =
    [
      rec_ ~src:1 ~dst:101 ~bytes:4.5e5 ~first_s:2 ();
      rec_ ~src:2 ~dst:102 ~bytes:3.0e5 ~first_s:25 ();
      (* Late but in-window: must land in its own bin, and must not
         rewind last_seen (the tail re-tier still covers bin 2). *)
      rec_ ~src:1 ~dst:101 ~bytes:1.5e5 ~first_s:18 ();
    ]
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:false (wparams ()) in
  let clock, _ = Clock.manual () in
  let posted = ref [] in
  let result =
    Daemon.run
      ~on_retier:(fun snap o ->
        posted := o :: !posted;
        check_matches_quadratic retier snap o)
      ~clock ~shards ~retier
      { Daemon.every_s = 10 }
      (Ingest.of_sequence records)
  in
  Alcotest.(check bool) "dedup off" true
    (result.Daemon.r_run.Stats.dropped_dup = None);
  Alcotest.(check int) "nothing late" 0 result.Daemon.r_run.Stats.late;
  match !posted with
  | last :: _ ->
      (* last_seen = 25 (not 18): the tail re-tier covers bin 2. *)
      Alcotest.(check int) "tail window bin" 2 last.Retier.o_bin
  | [] -> Alcotest.fail "no windows posted"

let test_daemon_dedup_and_late () =
  (* Duplicates (same 5-tuple and window, different router) are dropped
     and counted; a record older than the whole window is dropped as
     late, not misread as a duplicate. *)
  let records =
    [
      rec_ ~router:0 ~src:1 ~dst:101 ~bytes:1e5 ~first_s:0 ();
      rec_ ~router:7 ~src:1 ~dst:101 ~bytes:1e5 ~first_s:0 ();
      rec_ ~router:0 ~src:2 ~dst:102 ~bytes:2e5 ~first_s:0 ();
      rec_ ~router:3 ~src:2 ~dst:102 ~bytes:2e5 ~first_s:0 ();
      rec_ ~router:0 ~src:1 ~dst:101 ~bytes:1e5 ~first_s:70 ();
      (* Fresh 5-tuple window, but its bin slid out 10s ago. *)
      rec_ ~router:0 ~src:2 ~dst:102 ~bytes:2e5 ~first_s:5 ();
    ]
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:true (wparams ()) in
  let clock, _ = Clock.manual () in
  let result =
    Daemon.run ~clock ~shards ~retier
      { Daemon.every_s = 1000 }
      (Ingest.of_sequence records)
  in
  Alcotest.(check int) "all ingested" 6 result.Daemon.r_run.Stats.records;
  Alcotest.(check (option int)) "two duplicates dropped" (Some 2)
    result.Daemon.r_run.Stats.dropped_dup;
  Alcotest.(check int) "one late drop" 1 result.Daemon.r_run.Stats.late

let test_daemon_wire_counters () =
  (* A wire-backed run surfaces the decoder's accounting: a crafted
     sequence jump shows up as seq_gaps, trailing garbage as malformed,
     and the records still price. *)
  let r1 = rec_ ~src:1 ~dst:101 ~bytes:4.5e5 ~first_s:2 () in
  let r2 = rec_ ~src:2 ~dst:102 ~bytes:3.0e5 ~first_s:14 () in
  let wire =
    Flowgen.Netflow.Wire.encode_v5 ~router:0 ~seq:0 [ r1 ]
    (* Sequence should be 1 here: 5 flows went missing upstream. *)
    ^ Flowgen.Netflow.Wire.encode_v5 ~router:0 ~seq:6 [ r2 ]
    ^ "trailing-garbage"
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:true (wparams ()) in
  let clock, _ = Clock.manual () in
  let result =
    Daemon.run ~clock ~shards ~retier
      { Daemon.every_s = 1000 }
      (Ingest.of_reader (Flowgen.Netflow.Wire.of_string wire))
  in
  Alcotest.(check int) "both records priced" 2
    result.Daemon.r_run.Stats.records;
  Alcotest.(check int) "gap accounted" 5 result.Daemon.r_run.Stats.seq_gaps;
  Alcotest.(check int) "garbage accounted" 1
    result.Daemon.r_run.Stats.malformed

let test_daemon_retier_wall () =
  (* A clock that ticks one second per read: the daemon reads it once
     before and once after each re-tier call, so every re-tier adds
     exactly 1 s to [retier_s], and the rest of the wall is ingest. *)
  let ticks = ref 0. in
  let clock =
    Clock.of_fn (fun () ->
        let t = !ticks in
        ticks := t +. 1.;
        t)
  in
  let records =
    List.init 6 (fun i -> rec_ ~src:(1 + i) ~dst:(101 + i) ~bytes:1e5 ~first_s:(i * 10) ())
  in
  let retier = Retier.create (rparams ()) ~meta_of in
  let shards = Shards.create ~shards:1 ~dedup:true (wparams ()) in
  let result =
    Daemon.run ~clock ~shards ~retier { Daemon.every_s = 20 }
      (Ingest.of_sequence records)
  in
  let run = result.Daemon.r_run in
  let retiers = result.Daemon.r_stats.Stats.retiers in
  Alcotest.(check int) "three re-tiers" 3 retiers;
  Alcotest.(check (float 0.)) "retier_s sums re-tier calls" (float_of_int retiers)
    run.Stats.retier_s;
  Alcotest.(check (float 0.)) "wall spans every clock read"
    (float_of_int ((2 * retiers) + 1)) run.Stats.wall_s;
  Alcotest.(check (float 1e-12)) "ingest rate excludes re-tiers"
    (6. /. (run.Stats.wall_s -. run.Stats.retier_s))
    (Stats.ingest_records_per_s run)

let test_daemon_validation () =
  let shards = Shards.create ~shards:1 ~dedup:false (wparams ()) in
  let t = Retier.create (rparams ()) ~meta_of in
  let clock, _ = Clock.manual () in
  Alcotest.check_raises "every_s" (Invalid_argument "Serve.Daemon: every_s < 1")
    (fun () ->
      ignore
        (Daemon.run ~clock ~shards ~retier:t
           { Daemon.every_s = 0 }
           (Ingest.of_records [])))

let suite =
  [
    Alcotest.test_case "manual clock" `Quick test_manual_clock;
    Alcotest.test_case "window mean rate" `Quick test_window_mean_rate;
    Alcotest.test_case "window slides" `Quick test_window_accumulates_and_slides;
    Alcotest.test_case "window late drop" `Quick test_window_late_drop;
    Alcotest.test_case "window ring reuse" `Quick test_window_ring_reuse;
    Alcotest.test_case "window lagging flow" `Quick test_window_lagging_flow;
    Alcotest.test_case "window exponential decay" `Quick test_window_exponential_decay;
    Alcotest.test_case "window diurnal weights" `Quick test_window_diurnal_weights;
    Alcotest.test_case "window occupancy" `Quick test_window_occupancy;
    Alcotest.test_case "window validation" `Quick test_window_validation;
    Alcotest.test_case "ingest sorted + replayed" `Quick test_ingest_sorted_and_replayed;
    Alcotest.test_case "ingest day shift" `Quick test_ingest_day_shift;
    Alcotest.test_case "ingest sequence verbatim" `Quick test_ingest_sequence_verbatim;
    Alcotest.test_case "ingest wire reader" `Quick test_ingest_wire_reader;
    Alcotest.test_case "percentile nearest rank" `Quick test_percentile_nearest_rank;
    Alcotest.test_case "stats rates" `Quick test_stats_rates;
    Alcotest.test_case "stats absent vs zero" `Quick test_stats_absent_vs_zero;
    Alcotest.test_case "retier empty window" `Quick test_retier_empty_window;
    Alcotest.test_case "retier skips unknown endpoints" `Quick test_retier_skips_unknown_endpoints;
    Alcotest.test_case "retier rejects linear" `Quick test_retier_rejects_linear;
    QCheck_alcotest.to_alcotest prop_retier_differential;
    Alcotest.test_case "daemon determinism (= quadratic)" `Quick test_daemon_determinism;
    Alcotest.test_case "daemon wire replay (= quadratic)" `Quick test_daemon_wire_replay;
    Alcotest.test_case "daemon out-of-order tail" `Quick test_daemon_out_of_order;
    Alcotest.test_case "daemon dedup and late" `Quick test_daemon_dedup_and_late;
    Alcotest.test_case "daemon wire counters" `Quick test_daemon_wire_counters;
    Alcotest.test_case "daemon re-tier wall" `Quick test_daemon_retier_wall;
    QCheck_alcotest.to_alcotest prop_shards_eager_matches_buffered;
    QCheck_alcotest.to_alcotest prop_window_matches_reference;
    Alcotest.test_case "daemon validation" `Quick test_daemon_validation;
  ]
