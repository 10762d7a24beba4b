(* The repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed in a scratch directory
   under _perfbench/ (removed afterwards), sets up several times,
   measures in child processes of this executable for S seconds, checks
   every output, and prints one JSON object as the last line of stdout:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1 (whose spans go to _perfbench/trace-NAME-seedN.jsonl).
   Exits 1 when an output was wrong, 2 on a usage error or any exception
   (OCaml's exit code for an uncaught one). See perfbench/README.md. *)

open Common

let setup_repeats = 3

let workloads = [ "grid"; "serve_ingest"; "retier_20k" ]

let end_to_end =
  [ ("setup_s", "s"); ("op_cpu_p50_ms", "ms"); ("items_per_cpu_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("unit.count", "count");
    ("unit.wall_p50_ms", "ms");
    ("unit.wall_p90_ms", "ms");
    ("unit.cpu_p90_ms", "ms");
    ("unit.items_per_s", "1/s");
    ("setup.wall_s", "s");
  ]
  @ Grid.layer_units @ gc_units
  @ [
      ("ingest.next_s", "s");
      ("shards.observe_s", "s");
      ("shards.snapshot_s", "s");
      ("shards.dropped_dup", "count");
      ("shards.flows", "count");
      ("shards.pending_max", "count");
      ("wire.records", "count");
      ("wire.malformed", "count");
      ("wire.seq_gaps", "count");
      ("retier.retier_s", "s");
      ("retier.evaluations", "count");
      ("retier.fallbacks", "count");
      ("retier.cold_p50_ms", "ms");
      ("host.steal_share", "ratio");
      ("trace.overhead_share", "ratio");
      ("trace.uncovered_share", "ratio");
      ("trace.spans", "count");
    ]

(* --- child processes ----------------------------------------------------------- *)

(* One set-up of [workload] in [dir]; returns facts the measurement
   needs or reports (golden-check counts, shard counts). *)
let setup ~workload ~seed ~dir =
  match workload with
  | "grid" -> Grid.setup ~dir
  | "serve_ingest" -> Serve_ingest.setup ~seed ~dir
  | _ -> Retier_20k.setup ~seed ~dir

let child = function
  | [ "setup"; workload; dir; seed; out ] ->
      let facts, wall, cpu = time_cpu (fun () -> setup ~workload ~seed:(int_of_string seed) ~dir) in
      save out ((("setup.peak_rss_mb", peak_rss_mb ()) :: ("setup.wall_s", wall) :: facts), cpu)
  | [ "grid"; dir; seconds; trace; out ] ->
      save out (Grid.measure ~dir ~seconds:(float_of_string seconds) ~trace:(trace = "1"))
  | [ "serve"; dir; trace; out ] -> save out (Serve_ingest.measure ~dir ~trace:(trace = "1"))
  | [ "retier"; dir; seconds; trace; out ] ->
      save out (Retier_20k.measure ~dir ~seconds:(float_of_string seconds) ~trace:(trace = "1"))
  | _ -> failwith "bad child arguments"

let children = ref 0

let in_child ~dir args =
  incr children;
  let out = Filename.concat dir (Printf.sprintf "result-%d.bin" !children) in
  run_child (args @ [ out ]);
  let r = load out in
  Sys.remove out;
  r

let measure_in_child ~dir args : result = in_child ~dir args

(* --- workloads ----------------------------------------------------------------- *)

(* Set up [setup_repeats] times, each from scratch in a fresh process;
   returns the set-ups' CPU seconds and the last set-up's facts, with
   the median set-up wall time added. *)
let repeat_setup ~workload ~seed ~dir =
  let runs : ((string * float) list * float) list =
    List.init setup_repeats (fun _ -> in_child ~dir [ "setup"; workload; dir; string_of_int seed ])
  in
  let wall = median (List.map (fun (facts, _) -> List.assoc "setup.wall_s" facts) runs) in
  (List.map snd runs, ("setup.wall_s", wall) :: fst (List.nth runs (setup_repeats - 1)))

(* Results of several measuring processes as one: samples pooled, the
   median peak RSS, and one failure per process whose outputs differ
   from the first's. A trace run has a single process, whose layers
   and spans are kept. *)
let combine = function
  | [] -> empty_result
  | first :: _ as rs ->
      {
        first with
        wall_ms = List.concat_map (fun r -> r.wall_ms) rs;
        cpu_ms = List.concat_map (fun r -> r.cpu_ms) rs;
        items = List.fold_left (fun acc r -> acc + r.items) 0 rs;
        attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 rs;
        failed =
          List.fold_left
            (fun acc r -> acc + r.failed + if String.equal r.digest first.digest then 0 else 1)
            0 rs;
        rss_mb = median (List.map (fun r -> r.rss_mb) rs);
      }

let run_workload ~workload ~seed ~seconds ~trace ~dir =
  let trace_flag = if trace then "1" else "0" in
  let secs = Printf.sprintf "%.3f" seconds in
  let setup_s, facts = repeat_setup ~workload ~seed ~dir in
  let r, steal =
    with_steal @@ fun () ->
    if workload = "grid" then
      let count name = int_of_float (List.assoc name facts) in
      let r = measure_in_child ~dir [ "grid"; dir; secs; trace_flag ] in
      { r with attempted = r.attempted + count "golden.checked"; failed = r.failed + count "golden.failed" }
    else if workload = "serve_ingest" then
      (* One replay per process, as `serve --from` runs; a trace run
         makes one. *)
      let t0 = now () in
      let rec replays acc =
        if trace && acc <> [] then acc
        else if now () -. t0 >= seconds && List.length acc >= 3 then acc
        else replays (measure_in_child ~dir [ "serve"; dir; trace_flag ] :: acc)
      in
      combine (List.rev (replays []))
    else
      let r = measure_in_child ~dir [ "retier"; dir; secs; trace_flag ] in
      { r with layers = facts @ r.layers }
  in
  (setup_s, facts, { r with layers = ("host.steal_share", steal) :: r.layers })

(* --- output -------------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~r metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-26s %s %s\n" name (json_number v) unit) metrics;
  let fields =
    List.map
      (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " fields)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: " ^ String.concat ", " workloads);
  exit 2

let parent args =
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  if not (List.for_all (fun (k, _) -> List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) opts) then usage ();
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed, seconds, trace =
    match (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace") with
    | Some seed, Some seconds, ("0" | "1" as t) when seconds > 0. -> (seed, seconds, t = "1")
    | _ -> usage ()
  in
  let work = "_perfbench" in
  let trace_out = Filename.concat work (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed) in
  let dir = Filename.concat (Filename.concat (Sys.getcwd ()) work) (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let setup_cpu, facts, r =
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> run_workload ~workload ~seed ~seconds ~trace ~dir)
  in
  let per_unit = float_of_int r.items /. float_of_int (List.length r.wall_ms) in
  let quartiles xs =
    String.concat "  "
      (List.map (fun p -> Printf.sprintf "p%.0f %.1f" p (percentile xs ~p)) [ 0.; 25.; 50.; 75.; 90.; 100. ])
  in
  Printf.printf "workload %s, seed %d: %d timed units, %d set-ups, %d of %d operations failed\n" workload seed
    (List.length r.wall_ms) setup_repeats r.failed r.attempted;
  Printf.printf "unit wall ms: %s\nunit CPU ms:  %s\n" (quartiles r.wall_ms) (quartiles r.cpu_ms);
  Printf.printf "set-up CPU s: %s; wall s (median): %.3f\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_cpu))
    (List.assoc "setup.wall_s" facts);
  Printf.printf "peak RSS: benchmark process %.0f MB, set-up process %.0f MB\n" (peak_rss_mb ())
    (List.assoc "setup.peak_rss_mb" facts);
  let derived =
    [
      ("unit.count", float_of_int (List.length r.wall_ms));
      ("unit.wall_p50_ms", median r.wall_ms);
      ("unit.wall_p90_ms", percentile r.wall_ms ~p:90.);
      ("unit.cpu_p90_ms", percentile r.cpu_ms ~p:90.);
      ("unit.items_per_s", ratio per_unit (median r.wall_ms /. 1e3));
      ("setup.wall_s", List.assoc "setup.wall_s" facts);
    ]
  in
  if not trace then List.iter (fun (name, v) -> Printf.printf "  %s %.4g\n" name v) (derived @ r.layers);
  let metrics =
    if not trace then
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "setup_s" -> median setup_cpu
            | "op_cpu_p50_ms" -> median r.cpu_ms
            | "items_per_cpu_s" -> ratio per_unit (median r.cpu_ms /. 1e3)
            | _ -> r.rss_mb
          in
          (name, v, unit))
        end_to_end
    else begin
      mkdir_p (Filename.dirname trace_out);
      write_spans trace_out r.spans;
      Printf.printf "spans written to %s\n" trace_out;
      let traced =
        [
          ("trace.overhead_share", ratio (median r.traced_ms) (median r.wall_ms) -. 1.);
          ("trace.uncovered_share", uncovered_share r.spans);
          ("trace.spans", float_of_int (List.length r.spans));
        ]
      in
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name (derived @ traced @ r.layers) with Some v -> v | None -> 0.
          in
          (name, v, unit))
        per_layer
    end
  in
  print_result ~r metrics;
  exit (if r.failed = 0 then 0 else 1)

let () =
  Engine.Proc.maybe_run_worker ();
  Engine.Remote.maybe_run_worker ();
  match Array.to_list Sys.argv with
  | _ :: flag :: rest when String.equal flag child_flag -> child rest
  | _ :: args -> parent args
  | [] -> usage ()
