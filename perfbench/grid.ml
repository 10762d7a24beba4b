(* grid: the whole experiment registry through [Runner.run_experiments],
   from cleared in-memory caches every time, in four legs run
   round-robin. A round is one grid per leg: serial; a Domains pool at
   jobs = 2; a Remote exec:2 loopback fleet; serial again with a disk
   CAS filled during set-up. The legs share each round's host
   conditions, so their per-leg medians compare fairly. *)

open Tiered
open Common

type leg = Serial | Domains | Fleet | Cas_warm

let legs = [ ("serial", Serial); ("domains", Domains); ("fleet", Fleet); ("cas_warm", Cas_warm) ]

let backend_jobs = function
  | Serial | Cas_warm -> (Engine.Pool.Domains, 1)
  | Domains -> (Engine.Pool.Domains, 2)
  | Fleet -> (Engine.Pool.Remote, 2)

(* The layer metrics reported for each leg, with their units (suffixed
   with the leg's name): the runner and GC on the legs that run cells in
   this process, the pool on the parallel legs, the caches where they do
   the work. *)
let leg_layers =
  let runner = [ ("runner.cell_busy_s", "s"); ("runner.top_cell_s", "s") ] in
  let pool = [ ("pool.utilization", "ratio"); ("pool.busy_imbalance", "ratio"); ("pool.overhead_s", "s") ] in
  function
  | Serial -> runner @ [ ("cache.hits", "count"); ("cache.misses", "count") ] @ gc_units
  | Domains -> runner @ pool @ gc_units
  | Fleet -> pool @ [ ("pool.restarts", "count"); ("cache.remote_hits", "count") ]
  | Cas_warm ->
      [ ("cache.hits", "count"); ("cache.disk_hits", "count"); ("cache.misses", "count"); ("cache.hit_ratio", "ratio");
        ("cas.bytes", "bytes") ]

(* Every per-layer metric the grid reports, with its unit. *)
let layer_units =
  List.concat_map (fun (name, _) -> [ ("grid." ^ name ^ "_ms", "ms"); ("grid." ^ name ^ "_cpu_ms", "ms") ]) legs
  @ List.concat_map (fun (name, leg) -> List.map (fun (m, u) -> (m ^ "." ^ name, u)) (leg_layers leg)) legs
  @ [ ("pool.fleet_spawn_s", "s"); ("pool.fleet_fixed_ms", "ms"); ("pool.fleet_per_task_us", "us") ]

let cas_dir dir = Filename.concat dir "cas"
let reference_file dir = Filename.concat dir "reference.bin"

(* Rendered bytes per experiment, in registry order. *)
let renders results =
  List.map (fun (r : Runner.result) -> (r.Runner.id, Runner.render [ r ])) results

(* Cells of the experiments whose render differs from [expected]. *)
let failed_cells ~cells ~expected actual =
  List.fold_left2
    (fun acc (id, want) (_, got) -> if String.equal want got then acc else acc + List.assoc id cells)
    0 expected actual

let golden_path id = Filename.concat (Filename.concat "test" "golden") (id ^ ".expected")

(* --- set-up ---------------------------------------------------------------- *)

(* One serial grid from cold caches, with the disk CAS on, gives the
   reference render every leg is checked against and fills the store
   the warm-CAS leg reads. The reference is itself checked against the
   committed goldens. Returns the cells checked against a golden file
   and those that differ. *)
let setup ~dir =
  let cells =
    List.map (fun (e : Experiment.t) -> (e.Experiment.id, List.length (e.Experiment.cells ()))) Experiment.all
  in
  rm_rf (cas_dir dir);
  Engine.Cache.enable_disk ~dir:(cas_dir dir) ();
  Engine.Cache.clear_all ();
  let reference = renders (Runner.run_experiments ~jobs:1 Experiment.all) in
  Engine.Cache.disable_disk ();
  let checked, golden_failed =
    List.fold_left
      (fun (checked, failed) (id, got) ->
        let path = golden_path id in
        if Sys.file_exists path then
          let n = List.assoc id cells in
          (checked + n, if String.equal (read_file path) got then failed else failed + n)
        else (checked, failed))
      (0, 0) reference
  in
  save (reference_file dir) (reference, cells);
  [ ("golden.checked", float_of_int checked); ("golden.failed", float_of_int golden_failed) ]

(* --- measuring process ------------------------------------------------------ *)

let layer_metrics (snap : Engine.Metrics.snapshot) gc =
  let open Engine.Metrics in
  let sum_stats f = List.fold_left (fun acc (_, s) -> acc + f s) 0 snap.caches in
  let hits = sum_stats (fun s -> s.Engine.Cache.hits)
  and disk_hits = sum_stats (fun s -> s.Engine.Cache.disk_hits)
  and remote_hits = sum_stats (fun s -> s.Engine.Cache.remote_hits)
  and misses = sum_stats (fun s -> s.Engine.Cache.misses) in
  let found = hits + disk_hits + remote_hits in
  let fl = float_of_int in
  [
    ("runner.cell_busy_s", snap.busy_s);
    ("runner.top_cell_s", List.fold_left (fun acc (t : task) -> Float.max acc t.wall_s) 0. snap.tasks);
    ("pool.utilization", snap.utilization);
    ("pool.busy_imbalance", snap.load_balance);
    ("pool.overhead_s", snap.wall_s -. ratio snap.busy_s (fl snap.jobs));
    ("pool.restarts", fl snap.worker_restarts);
    ("cache.hits", fl hits);
    ("cache.disk_hits", fl disk_hits);
    ("cache.remote_hits", fl remote_hits);
    ("cache.misses", fl misses);
    ("cache.hit_ratio", ratio (fl found) (fl (found + misses)));
    ("cas.bytes", match snap.disk with Some d -> fl d.Engine.Cache.bytes | None -> 0.);
  ]
  @ gc_metrics gc

(* Fleet dispatch cost as a fit: no-op tasks at several counts on a
   2-worker loopback fleet, wall = fixed + per_task * tasks. *)
let fleet_fit () =
  let pool, spawn_s = time (fun () -> Engine.Pool.create ~backend:Engine.Pool.Remote ~jobs:2 ()) in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      if Engine.Pool.backend pool <> Engine.Pool.Remote then failwith "fleet fit: no remote worker came up";
      let points =
        List.map
          (fun n ->
            let walls =
              List.init 5 (fun _ ->
                  snd (time (fun () -> ignore (Engine.Pool.map pool (fun x -> x + 1) (Array.make n 0)))))
            in
            (float_of_int n, median walls))
          [ 16; 64; 256; 1024 ]
      in
      let n = float_of_int (List.length points) in
      let mx = sum (List.map fst points) /. n and my = sum (List.map snd points) /. n in
      let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) points)
      and sxx = sum (List.map (fun (x, _) -> (x -. mx) ** 2.) points) in
      let slope = sxy /. sxx in
      [
        ("pool.fleet_spawn_s", spawn_s);
        ("pool.fleet_fixed_ms", 1e3 *. (my -. (slope *. mx)));
        ("pool.fleet_per_task_us", 1e6 *. slope);
      ])

(* One grid on [leg]: its wall and CPU time, failed cells, GC delta
   and layer metrics. *)
let run_leg ~dir ~reference ~cells ~n_cells ~tr ~k ~with_spans ~parent (name, leg) =
  let backend, jobs = backend_jobs leg in
  if leg = Cas_warm then Engine.Cache.enable_disk ~dir:(cas_dir dir) ();
  let metrics = Engine.Metrics.create () in
  let layer name parent f = if with_spans then fst (span tr ~name ~id:k ~parent (fun _ -> f ())) else f () in
  let body parent =
    layer "cache.clear_all" parent Engine.Cache.clear_all;
    let (results, wall, cpu), gc =
      gc_delta (fun () ->
          layer "runner.run_experiments" parent (fun () ->
              time_cpu (fun () -> Runner.run_experiments ~backend ~jobs ~metrics Experiment.all)))
    in
    let rendered = layer "runner.render" parent (fun () -> renders results) in
    (wall, cpu, gc, rendered)
  in
  let wall, cpu, gc, rendered =
    if with_spans then fst (span tr ~name:("grid." ^ name) ~id:k ~parent body) else body parent
  in
  let snap = Engine.Metrics.snapshot metrics in
  Engine.Cache.disable_disk ();
  let failed =
    if String.equal snap.Engine.Metrics.backend (Engine.Pool.backend_name backend) then
      failed_cells ~cells ~expected:reference rendered
    else n_cells
  in
  let wanted = leg_layers leg in
  let layers =
    List.filter_map
      (fun (m, v) -> if List.mem_assoc m wanted then Some (m ^ "." ^ name, v) else None)
      (layer_metrics snap gc)
  in
  (wall, cpu, failed, gc, layers)

(* Rounds until [seconds] have passed (at least three). In a trace run
   every other round is traced and the layers are read from those; the
   per-leg medians come from the untraced rounds. *)
let measure ~dir ~seconds ~trace =
  let reference, cells = load (reference_file dir) in
  let n_cells = List.fold_left (fun acc (_, n) -> acc + n) 0 cells in
  let tr = tracer () in
  let units = ref [] and leg_ms = ref [] in
  let t0 = now () in
  let rec loop k acc =
    let plain = List.length acc.wall_ms and traced = List.length acc.traced_ms in
    if now () -. t0 >= seconds && plain >= 3 && ((not trace) || traced >= 3) then acc
    else begin
      let with_spans = trace && k mod 2 = 1 in
      let round parent = List.map (run_leg ~dir ~reference ~cells ~n_cells ~tr ~k ~with_spans ~parent) legs in
      let results = if with_spans then fst (span tr ~name:"round" ~id:k ~parent:(-1) round) else round (-1) in
      let wall = sum (List.map (fun (w, _, _, _, _) -> w) results) in
      let cpu = sum (List.map (fun (_, c, _, _, _) -> c) results) in
      let n = n_cells * List.length legs in
      let failed = List.fold_left (fun acc (_, _, f, _, _) -> acc + f) 0 results in
      let acc = { acc with attempted = acc.attempted + n; failed = acc.failed + failed } in
      let acc =
        if with_spans then begin
          let gc = gc_sum (List.map (fun (_, _, _, g, _) -> g) results) in
          units := (gc_metrics gc @ List.concat_map (fun (_, _, _, _, l) -> l) results) :: !units;
          { acc with traced_ms = (1e3 *. wall) :: acc.traced_ms }
        end
        else begin
          leg_ms :=
            List.concat
              (List.map2
                 (fun (name, _) (w, c, _, _, _) ->
                   [ ("grid." ^ name ^ "_ms", 1e3 *. w); ("grid." ^ name ^ "_cpu_ms", 1e3 *. c) ])
                 legs results)
            :: !leg_ms;
          {
            acc with
            wall_ms = (1e3 *. wall) :: acc.wall_ms;
            cpu_ms = (1e3 *. cpu) :: acc.cpu_ms;
            items = acc.items + n;
          }
        end
      in
      loop (k + 1) acc
    end
  in
  let acc = loop 0 empty_result in
  let rss_mb = peak_rss_mb () in
  let leg_medians =
    List.map (fun (name, _) -> (name, median (List.map (List.assoc name) !leg_ms))) (List.hd !leg_ms)
  in
  let layers = if trace then leg_medians @ mean_layers !units @ fleet_fit () else leg_medians in
  { acc with rss_mb; layers; spans = spans tr }
