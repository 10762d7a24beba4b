(* The execution engine: domain pool determinism, keyed artifact cache
   (memory + disk tiers, schema stamps), and failure containment. *)

open Tiered

(* (a) A representative experiment grid must produce identical reports
   serial (jobs=1) and parallel (jobs=4) — same ids, same tables, same
   rendered bytes. table1 exercises the workload cache from several
   domains at once; fig8 exercises the market cache. *)
let test_parallel_serial_identical () =
  let grid =
    List.map Experiment.find [ "table1"; "fig1"; "fig3"; "fig4"; "fig5"; "fig8" ]
  in
  let serial = Runner.run_experiments ~jobs:1 grid in
  let parallel = Runner.run_experiments ~jobs:4 grid in
  Alcotest.(check (list string))
    "ids in submission order"
    (List.map (fun (r : Runner.result) -> r.Runner.id) serial)
    (List.map (fun (r : Runner.result) -> r.Runner.id) parallel);
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      if a.Runner.tables <> b.Runner.tables then
        Alcotest.failf "experiment %s: parallel tables diverge" a.Runner.id)
    serial parallel;
  Alcotest.(check string)
    "byte-identical rendering" (Runner.render serial) (Runner.render parallel)

(* Plain pool mapping: ordering and the serial fallback. *)
let test_pool_map_order () =
  let input = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) input in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int))
        "parallel order" expected
        (Engine.Pool.map pool (fun i -> (i * i) + 1) input));
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (array int))
        "serial fallback" expected
        (Engine.Pool.map pool (fun i -> (i * i) + 1) input))

(* (b) The in-memory tier returns the physically same artifact until an
   explicit invalidate forces a recomputation. *)
let test_cache_physical_equality () =
  let cache = Engine.Cache.create ~name:"test-mem" () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    Array.init 4 float_of_int
  in
  let key = ("eu_isp", 1.1, 20.) in
  let first = Engine.Cache.find_or_add cache ~key compute in
  let second = Engine.Cache.find_or_add cache ~key compute in
  Alcotest.(check bool) "physically equal" true (first == second);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Engine.Cache.stats cache).Engine.Cache.hits;
  Engine.Cache.invalidate cache ~key;
  let third = Engine.Cache.find_or_add cache ~key compute in
  Alcotest.(check int) "recomputed after invalidate" 2 !calls;
  Alcotest.(check bool) "fresh artifact" false (third == first);
  (* A different key never aliases. *)
  let other = Engine.Cache.find_or_add cache ~key:("cdn", 1.1, 20.) compute in
  Alcotest.(check int) "distinct keys computed separately" 3 !calls;
  Alcotest.(check bool) "distinct artifact" false (other == third)

(* (c) The disk tier round-trips artifacts across cache instances and
   rejects payloads written under a stale schema version. *)
let test_cache_disk_tier () =
  let dir =
    let f = Filename.temp_file "engine-cache" "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f
  in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  let calls = ref 0 in
  let compute () =
    incr calls;
    [ ("fit", 42.5); ("gamma", 0.25) ]
  in
  let key = ("market", "internet2", 0.2) in
  let c1 = Engine.Cache.create ~name:"test-disk" ~schema:"v1" () in
  let v1 = Engine.Cache.find_or_add c1 ~key compute in
  Alcotest.(check int) "computed and written" 1 !calls;
  (* A fresh cache (cold memory tier, same schema) loads from disk. *)
  let c2 = Engine.Cache.create ~name:"test-disk" ~schema:"v1" () in
  let v2 = Engine.Cache.find_or_add c2 ~key compute in
  Alcotest.(check int) "disk hit, no recomputation" 1 !calls;
  Alcotest.(check bool) "round-trips structurally" true (v1 = v2);
  Alcotest.(check int)
    "counted as disk hit" 1 (Engine.Cache.stats c2).Engine.Cache.disk_hits;
  (* A bumped schema must reject the stale payload and recompute. *)
  let c3 = Engine.Cache.create ~name:"test-disk" ~schema:"v2" () in
  let _ = Engine.Cache.find_or_add c3 ~key compute in
  Alcotest.(check int) "stale schema rejected" 2 !calls;
  Alcotest.(check int)
    "stale read is a miss" 1 (Engine.Cache.stats c3).Engine.Cache.misses

let temp_cache_dir () =
  let f = Filename.temp_file "engine-cache" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

(* Read and plant payloads straight through the content-addressed
   store, bypassing [Engine.Cache] (no LRU stamps, no counters). *)
let cas_payload ~dir ~cache ~key_digest =
  Option.bind (Engine.Cas.read_ref ~dir ~cache ~key_digest) (Engine.Cas.read_object ~dir)

let plant_payload ~dir ~cache ~key_digest payload =
  match Engine.Cas.write_object ~dir ~payload with
  | Some digest -> Engine.Cas.write_ref ~dir ~cache ~key_digest ~digest
  | None -> Alcotest.fail "could not plant the payload"

(* Byte count of the payload files actually on disk — an independent
   check of the engine's own accounting. *)
let scan_payload_bytes dir =
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ".bin" then
        acc + (Unix.stat (Filename.concat dir name)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* With the disk tier off, a fresh miss builds no payload at all (the
   marshal would be thrown away) and writes nothing; once the disk tier
   is on, the next fresh miss still lands in the CAS. *)
let test_cache_tiers_off_skip_marshal () =
  let dir = temp_cache_dir () in
  Engine.Cache.disable_disk ();
  let cache = Engine.Cache.create ~name:"test-tiers-off" ~schema:"v1" () in
  let big = Array.make 100_000 1.5 in
  let before = Gc.allocated_bytes () in
  let got = Engine.Cache.find_or_add cache ~key:"off" (fun () -> big) in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "artifact returned" true (got == big);
  (* Marshalling the 800 kB artifact would allocate at least as much. *)
  Alcotest.(check bool)
    (Printf.sprintf "no payload built (%.0f bytes allocated)" allocated)
    true (allocated < 100_000.);
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  Alcotest.(check int) "nothing written" 0 (scan_payload_bytes dir);
  Alcotest.(check bool) "no reference for the tiers-off miss" true
    (Option.is_none
       (cas_payload ~dir ~cache:"test-tiers-off"
          ~key_digest:(Engine.Cache.key_digest "off")));
  let v = Engine.Cache.find_or_add cache ~key:"on" (fun () -> [| 2.5 |]) in
  match
    cas_payload ~dir ~cache:"test-tiers-off"
      ~key_digest:(Engine.Cache.key_digest "on")
  with
  | Some payload ->
      let stamp, stored = (Marshal.from_string payload 0 : string * float array) in
      Alcotest.(check string) "schema stamp" "v1" stamp;
      Alcotest.(check (array (float 0.))) "fresh miss in the CAS" v stored
  | None -> Alcotest.fail "fresh miss after enable_disk did not reach the CAS"

(* The market/2 payload layout: [Market.t] before its memo grew the
   profit and cost sort orders. *)
type market2_memo = {
  m2_pow_valuations : float array option;
  m2_linear_b : float array option;
  m2_potential_profits : float array option;
}

type market2 = {
  m2_flows : Flow.t array;
  m2_spec : Market.demand_spec;
  m2_alpha : float;
  m2_p0 : float;
  m2_cost_model : Cost_model.t;
  m2_valuations : float array;
  m2_costs : float array;
  m2_gamma : float;
  m2_k : float;
  m2_memo : market2_memo;
}

(* A CAS payload stamped with the previous market schema must read as a
   miss and be recomputed — never unmarshalled into today's record
   shape. The stale payload is planted under exactly the key
   [Experiment.market] looks up. *)
let test_stale_market_schema_recomputed () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  let network = "internet2" and alpha = 1.37 and spec = Market.Ced in
  let p0 = Experiment.Defaults.p0 in
  let cost_model = Cost_model.linear ~theta:Experiment.Defaults.theta in
  let key_digest =
    Engine.Cache.key_digest ("market", network, alpha, p0, cost_model, spec)
  in
  let fresh = Market.fit ~spec ~alpha ~p0 ~cost_model (Experiment.dataset network) in
  let stale =
    {
      m2_flows = fresh.Market.flows;
      m2_spec = spec;
      m2_alpha = alpha;
      m2_p0 = p0;
      m2_cost_model = cost_model;
      m2_valuations = fresh.Market.valuations;
      m2_costs = fresh.Market.costs;
      m2_gamma = fresh.Market.gamma;
      m2_k = fresh.Market.k;
      m2_memo =
        {
          m2_pow_valuations = Some [| 1. |];
          m2_linear_b = None;
          m2_potential_profits = Some [| 2. |];
        };
    }
  in
  let stale_payload = Marshal.to_string ("market/2", stale) [] in
  plant_payload ~dir ~cache:"market" ~key_digest stale_payload;
  Alcotest.(check (option string)) "stale payload planted" (Some stale_payload)
    (cas_payload ~dir ~cache:"market" ~key_digest);
  let counts () = List.assoc "market" (Engine.Cache.all_stats ()) in
  let before = counts () in
  let m = Experiment.market ~alpha ~spec network in
  let after = counts () in
  Alcotest.(check int) "stale payload is a miss" (before.Engine.Cache.misses + 1)
    after.Engine.Cache.misses;
  Alcotest.(check int) "not a disk hit" before.Engine.Cache.disk_hits
    after.Engine.Cache.disk_hits;
  Alcotest.(check (array (float 0.))) "recomputed fit" fresh.Market.valuations
    m.Market.valuations;
  Alcotest.(check (array int)) "memo of today's shape"
    (Market.profit_order fresh) (Market.profit_order m);
  match cas_payload ~dir ~cache:"market" ~key_digest with
  | Some payload ->
      let stamp, _ = (Marshal.from_string payload 0 : string * Market.t) in
      Alcotest.(check string) "key now points at a fresh payload" "market/3" stamp
  | None -> Alcotest.fail "recomputed market not written back"

(* A run with metrics records its GC delta (shown by --metrics and
   --metrics-json), and recording it changes nothing in the output. *)
let test_metrics_gc_delta () =
  let grid = [ Experiment.find "fig14" ] in
  let metrics = Engine.Metrics.create () in
  let observed = Runner.run_experiments ~jobs:1 ~metrics grid in
  let plain = Runner.run_experiments ~jobs:1 grid in
  Alcotest.(check string) "metrics never feed back into output"
    (Runner.render plain) (Runner.render observed);
  let snap = Engine.Metrics.snapshot metrics in
  (match snap.Engine.Metrics.gc with
  | None -> Alcotest.fail "no GC delta recorded"
  | Some g ->
      Alcotest.(check bool) "minor words counted" true
        (g.Engine.Metrics.minor_words > 0.);
      Alcotest.(check bool) "minor collections counted" true
        (g.Engine.Metrics.minor_collections > 0));
  Alcotest.(check int) "four GC rows" 4 (List.length (Engine.Metrics.gc_rows snap));
  let json = Engine.Metrics.to_json snap in
  Alcotest.(check bool) "gc object in the JSON" true
    (Fixtures.contains json "\"gc\": {\"minor_words\": ");
  Alcotest.(check bool) "no GC delta without a run" true
    (Option.is_none (Engine.Metrics.snapshot (Engine.Metrics.create ())).Engine.Metrics.gc)

(* (e) A bounded disk tier never holds more than max_bytes of payload,
   whatever the (randomized) insert sizes; evicted artifacts recompute
   instead of erroring. *)
let test_cache_eviction_respects_budget () =
  let dir = temp_cache_dir () in
  let max_bytes = 4096 in
  Engine.Cache.enable_disk ~max_bytes ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  let cache = Engine.Cache.create ~name:"test-evict" ~schema:"v1" () in
  let rng = Random.State.make [| 0xEC41C7 |] in
  let computes = ref 0 in
  let first_n = ref 0 in
  (* 40 artifacts of randomized size (several times the budget in
     total). After every single write the invariant must hold. *)
  for i = 0 to 39 do
    let n = 64 + Random.State.int rng 1024 in
    if i = 0 then first_n := n;
    let (_ : string) =
      Engine.Cache.find_or_add cache ~key:("blob", i, n) (fun () ->
          incr computes;
          String.make n (Char.chr (65 + (i mod 26))))
    in
    let on_disk = scan_payload_bytes dir in
    if on_disk > max_bytes then
      Alcotest.failf "after insert %d: %d payload bytes on disk > budget %d" i
        on_disk max_bytes;
    let accounted = Engine.Cache.disk_usage_bytes () in
    Alcotest.(check int)
      (Printf.sprintf "accounting matches scan after insert %d" i)
      on_disk accounted
  done;
  (match Engine.Cache.disk_stats () with
  | None -> Alcotest.fail "disk tier enabled but disk_stats is None"
  | Some s ->
      Alcotest.(check (option int)) "budget reported" (Some max_bytes)
        s.Engine.Cache.max_bytes;
      Alcotest.(check bool) "bytes within budget" true
        (s.Engine.Cache.bytes <= max_bytes);
      Alcotest.(check bool)
        (Printf.sprintf "evictions happened (%d)" s.Engine.Cache.evictions)
        true
        (s.Engine.Cache.evictions > 0));
  (* The first key was long evicted from disk; with a cold memory tier
     the lookup recomputes rather than raising. *)
  let cold = Engine.Cache.create ~name:"test-evict" ~schema:"v1" () in
  let before = !computes in
  let (_ : string) =
    Engine.Cache.find_or_add cold ~key:("blob", 0, !first_n) (fun () ->
        incr computes;
        "recomputed")
  in
  Alcotest.(check int) "evicted key recomputes cleanly" (before + 1) !computes

(* (f) A truncated/corrupt on-disk payload is a miss, never an error:
   the artifact recomputes and the bad payload is overwritten. *)
let test_cache_truncated_payload_is_miss () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  let calls = ref 0 in
  let compute () =
    incr calls;
    [ 1.5; 2.5; 3.5 ]
  in
  let key = ("corrupt", 7) in
  let c1 = Engine.Cache.create ~name:"test-corrupt" ~schema:"v1" () in
  let _ = Engine.Cache.find_or_add c1 ~key compute in
  Alcotest.(check int) "written once" 1 !calls;
  (* Truncate every payload in place (header survives partially; the
     unmarshal must fail gracefully). *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then begin
        let path = Filename.concat dir name in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (max 1 (size / 2))
      end)
    (Sys.readdir dir);
  let c2 = Engine.Cache.create ~name:"test-corrupt" ~schema:"v1" () in
  let v = Engine.Cache.find_or_add c2 ~key compute in
  Alcotest.(check int) "truncated payload recomputed" 2 !calls;
  Alcotest.(check (list (float 1e-9))) "value intact" [ 1.5; 2.5; 3.5 ] v;
  Alcotest.(check int)
    "truncated read is a miss, not an error" 1
    (Engine.Cache.stats c2).Engine.Cache.misses;
  (* Zero-byte payloads (crash during write) behave the same. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then
        Unix.truncate (Filename.concat dir name) 0)
    (Sys.readdir dir);
  let c3 = Engine.Cache.create ~name:"test-corrupt" ~schema:"v1" () in
  let _ = Engine.Cache.find_or_add c3 ~key compute in
  Alcotest.(check int) "zero-byte payload recomputed" 3 !calls

(* (g) A synthetic experiment of 100 micro-cells merges identically
   through the Runner at jobs=1/2/8, and matches both direct paths. *)
let test_runner_micro_cells () =
  let n = 100 in
  let row i = [ Printf.sprintf "cell%02d" i; string_of_int ((i * 37) mod 101) ] in
  let micro : Experiment.t =
    {
      Experiment.id = "micro100";
      description = "synthetic 100-cell grid";
      run =
        (fun () ->
          [
            Report.make ~title:"micro" ~header:[ "cell"; "value" ]
              (List.init n row);
          ]);
      cells =
        (fun () ->
          List.init n (fun i ->
              {
                Experiment.label = Printf.sprintf "c%d" i;
                compute = (fun () -> Experiment.Rows [ row i ]);
              }));
      assemble =
        (fun outputs ->
          let rows =
            List.concat_map
              (function
                | Experiment.Rows rows -> rows
                | Experiment.Tables _ -> Alcotest.fail "unexpected Tables")
              outputs
          in
          [ Report.make ~title:"micro" ~header:[ "cell"; "value" ] rows ]);
    }
  in
  Alcotest.(check bool)
    "decomposed serial path = direct path" true
    (Experiment.run_cells micro = micro.Experiment.run ());
  let render jobs = Runner.render (Runner.run_experiments ~jobs [ micro ]) in
  let r1 = render 1 in
  Alcotest.(check string) "jobs=2 merges identically" r1 (render 2);
  Alcotest.(check string) "jobs=8 merges identically" r1 (render 8)

(* (d) A raising task is reported (deterministically: lowest failing
   index) without deadlocking the queue; the pool stays usable. *)
let test_pool_survives_exception () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Engine.Pool.map pool
           (fun i -> if i mod 5 = 3 then failwith "boom" else i)
           (Array.init 16 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Engine.Pool.Task_failed { index; exn; backtrace } ->
          Alcotest.(check int) "lowest failing index" 3 index;
          Alcotest.(check string) "original exception" "boom"
            (match exn with Failure m -> m | _ -> Printexc.to_string exn);
          (* Worker domains enable backtrace recording (per-domain
             state, off by default in fresh domains): a failure report
             without a backtrace is a debugging dead end. *)
          Alcotest.(check bool) "non-empty backtrace" true
            (String.length (String.trim backtrace) > 0));
      (* The queue drained; the same pool still schedules new work. *)
      let again =
        Engine.Pool.map pool (fun i -> i + 1) (Array.init 8 (fun i -> i))
      in
      Alcotest.(check (array int))
        "pool alive after failure"
        (Array.init 8 (fun i -> i + 1))
        again)

(* (h) Eviction accounting: a payload that cannot be removed must not
   count as freed bytes, or the tier is left over budget whenever an
   eviction loses a race (or hits a permission error). Simulated via
   the Private remove hook — filesystem permissions are useless for
   this when tests run as root. *)
let test_eviction_skips_unremovable () =
  let dir = temp_cache_dir () in
  (* Calibrate the payload file size with an unbounded tier first. *)
  Engine.Cache.enable_disk ~dir ();
  let finally () =
    Engine.Cache.Private.set_remove_hook None;
    Engine.Cache.disable_disk ()
  in
  Fun.protect ~finally @@ fun () ->
  let cache = Engine.Cache.create ~name:"test-unremovable" ~schema:"v1" () in
  let payload i = String.make 512 (Char.chr (65 + i)) in
  let add i =
    ignore (Engine.Cache.find_or_add cache ~key:("pin", i) (fun () -> payload i))
  in
  add 0;
  let s = scan_payload_bytes dir in
  Alcotest.(check bool) "payload written" true (s > 0);
  (* Re-enable with a 2-payload budget; make payload 0 unremovable.
     Objects are content-addressed, so the pinned file is named by the
     digest of payload 0's bytes, not by its key. *)
  Engine.Cache.enable_disk ~max_bytes:(2 * s) ~dir ();
  let pinned = Engine.Cache.Private.payload_digest cache (payload 0) in
  Engine.Cache.Private.set_remove_hook
    (Some
       (fun path ->
         if Filename.basename path = Engine.Cas.object_name pinned then
           raise (Sys_error (path ^ ": simulated unremovable payload"))
         else Sys.remove path));
  for i = 1 to 3 do
    add i;
    let on_disk = scan_payload_bytes dir in
    (* The buggy accounting subtracted the pinned payload's size
       despite the failed removal and stopped evicting early, leaving
       3 payloads (> budget) on disk after insert 2. *)
    if on_disk > 2 * s then
      Alcotest.failf
        "after insert %d: %d payload bytes on disk > budget %d (failed \
         removal was counted as freed)"
        i on_disk (2 * s)
  done;
  (* The unremovable payload itself was skipped, never deleted: it
     still disk-hits from a cold memory tier. *)
  let cold = Engine.Cache.create ~name:"test-unremovable" ~schema:"v1" () in
  let v = Engine.Cache.find_or_add cold ~key:("pin", 0) (fun () -> "MISS") in
  Alcotest.(check string) "pinned payload survived" (payload 0) v;
  (match Engine.Cache.disk_stats () with
  | None -> Alcotest.fail "disk tier enabled but disk_stats is None"
  | Some st ->
      Alcotest.(check bool)
        (Printf.sprintf "only real removals counted (%d)"
           st.Engine.Cache.evictions)
        true
        (st.Engine.Cache.evictions >= 1))

(* (i) LRU recency: a disk hit must protect a payload from eviction
   even when it lands in the same second as every write. The old
   mtime-based stamp (whole seconds under OCaml's Unix.stat) could not
   see the hit, and the name tie-break then deterministically evicted
   the hot payload. Keys are ordered so the hot payload sorts first by
   file name — the exact case the mtime scheme got wrong. *)
let test_lru_same_second_hit_survives () =
  let dir = temp_cache_dir () in
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  (* Pick the key whose digest (hence payload file name) is smaller as
     the hot one: under a same-second mtime tie the old scheme evicted
     the lexicographically first file, i.e. precisely this payload. *)
  let k0 = ("lru", 0) and k1 = ("lru", 1) in
  let hot, cold_key =
    if String.compare (Engine.Cache.key_digest k0) (Engine.Cache.key_digest k1) < 0
    then (k0, k1)
    else (k1, k0)
  in
  let computes = ref 0 in
  let value tag = tag ^ String.make 256 'x' in
  let add cache key tag =
    Engine.Cache.find_or_add cache ~key (fun () ->
        incr computes;
        value tag)
  in
  let c1 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  ignore (add c1 hot "hot");
  let s = scan_payload_bytes dir in
  ignore (add c1 cold_key "cold");
  Alcotest.(check int) "both computed" 2 !computes;
  (* Disk-hit the hot payload through a fresh cache (cold memory
     tier) — this refreshes its recency stamp, same second or not. *)
  let c2 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  Alcotest.(check string) "hot disk hit" (value "hot") (add c2 hot "hot");
  Alcotest.(check int) "hit did not recompute" 2 !computes;
  (* Now bound the tier at two payloads and write a third: the
     least-recently-used payload is the un-hit one, not the hot one. *)
  Engine.Cache.enable_disk ~max_bytes:(2 * s) ~dir ();
  ignore (add c2 ("lru", 2) "new");
  Alcotest.(check int) "third computed" 3 !computes;
  let c3 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  Alcotest.(check string)
    "hot payload survived the eviction" (value "hot") (add c3 hot "hot");
  Alcotest.(check int) "hot still served from disk" 3 !computes;
  let c4 = Engine.Cache.create ~name:"test-lru" ~schema:"v1" () in
  ignore (add c4 cold_key "cold");
  Alcotest.(check int) "un-hit payload was the one evicted" 4 !computes

(* (j) The serial fast path of a multi-worker pool books its time to a
   distinct caller slot: tiny maps must not skew worker slot 0 (and
   with it the max/mean load-balance statistic). *)
let test_caller_slot_not_worker_zero () =
  let spin_ms x =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.01 do
      ()
    done;
    x
  in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      (* A 1-task map takes the serial fast path on the caller. *)
      ignore (Engine.Pool.map pool spin_ms [| 1 |]);
      let busy = Engine.Pool.busy_times pool in
      Alcotest.(check int) "one slot per worker" 4 (Array.length busy);
      Array.iteri
        (fun i b ->
          if b > 0. then
            Alcotest.failf
              "worker slot %d booked %.6fs for a serial fast-path map" i b)
        busy);
  (* A pool without workers reports the single caller slot instead. *)
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      ignore (Engine.Pool.map pool spin_ms [| 1 |]);
      let busy = Engine.Pool.busy_times pool in
      Alcotest.(check int) "single caller slot" 1 (Array.length busy);
      Alcotest.(check bool) "caller time booked" true (busy.(0) > 0.))

let suite =
  [
    Alcotest.test_case "parallel = serial on an experiment grid" `Slow
      test_parallel_serial_identical;
    Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "cache memory tier: physical equality + invalidate"
      `Quick test_cache_physical_equality;
    Alcotest.test_case "cache disk tier: round-trip + schema stamp" `Quick
      test_cache_disk_tier;
    Alcotest.test_case "cache disk tier: eviction respects max_bytes" `Quick
      test_cache_eviction_respects_budget;
    Alcotest.test_case "cache disk tier: truncated payload is a miss" `Quick
      test_cache_truncated_payload_is_miss;
    Alcotest.test_case "runner: 100 micro-cells merge identically" `Quick
      test_runner_micro_cells;
    Alcotest.test_case "cache: tiers off, a miss marshals and writes nothing"
      `Quick test_cache_tiers_off_skip_marshal;
    Alcotest.test_case "cache: a market/2 payload is recomputed" `Quick
      test_stale_market_schema_recomputed;
    Alcotest.test_case "metrics: per-run GC delta, no feedback" `Quick
      test_metrics_gc_delta;
    Alcotest.test_case "pool survives raising tasks" `Quick
      test_pool_survives_exception;
    Alcotest.test_case "cache eviction skips unremovable payloads" `Quick
      test_eviction_skips_unremovable;
    Alcotest.test_case "cache LRU: same-second disk hit protects a payload"
      `Quick test_lru_same_second_hit_survives;
    Alcotest.test_case "pool serial fast path books a caller slot" `Quick
      test_caller_slot_not_worker_zero;
  ]
