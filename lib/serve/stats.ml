type t = {
  mutable retiers : int;
  mutable fallbacks : int;
  mutable evaluations : int;
  mutable lat : float list;  (* seconds, reverse arrival order *)
}

let create () =
  {
    retiers = 0;
    fallbacks = 0;
    evaluations = 0;
    lat = [];
  }

let observe t ~latency_s ~evaluations ~fallback =
  t.retiers <- t.retiers + 1;
  if fallback then t.fallbacks <- t.fallbacks + 1;
  t.evaluations <- t.evaluations + evaluations;
  t.lat <- latency_s :: t.lat

type summary = {
  retiers : int;
  fallbacks : int;
  evaluations : int;
  p50_ms : float option;
  p99_ms : float option;
  max_ms : float option;
}

(* Nearest rank over a sorted sample. An empty histogram has no
   quantiles — [None], not a sentinel 0 that reads as "instant" — and a
   single observation is every quantile of itself. *)
let percentile sorted ~p =
  let n = Array.length sorted in
  if n = 0 then None
  else if n = 1 || p <= 0. then Some sorted.(0)
  else
    (* Nearest rank: smallest index whose rank covers p percent. *)
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    Some sorted.(rank - 1)

let summary t =
  let lat = Array.of_list t.lat in
  Array.sort Float.compare lat;
  let n = Array.length lat in
  let scale = Option.map (fun v -> 1e3 *. v) in
  {
    retiers = t.retiers;
    fallbacks = t.fallbacks;
    evaluations = t.evaluations;
    p50_ms = scale (percentile lat ~p:50.);
    p99_ms = scale (percentile lat ~p:99.);
    max_ms = (if n = 0 then None else Some (1e3 *. lat.(n - 1)));
  }

type run = {
  records : int;
  dropped_dup : int option;
  late : int;
  seq_gaps : int;
  malformed : int;
  occupancy : float;
  wall_s : float;
  records_per_s : float;
  retier_s : float;
}

let ingest_records_per_s run =
  let ingest_s = run.wall_s -. run.retier_s in
  if ingest_s > 0. then float_of_int run.records /. ingest_s else 0.

let report s run =
  let cell_i = string_of_int in
  let cell_oi = function None -> "off" | Some v -> cell_i v in
  let cell_of = function None -> "n/a" | Some v -> Tiered.Report.cell_f v in
  Tiered.Report.make ~title:"serve: streaming re-tier"
    ~header:[ "metric"; "value" ]
    [
      [ "records ingested"; cell_i run.records ];
      [ "records/s"; Tiered.Report.cell_f run.records_per_s ];
      [ "ingest records/s"; Tiered.Report.cell_f (ingest_records_per_s run) ];
      [ "duplicates dropped"; cell_oi run.dropped_dup ];
      [ "late drops"; cell_i run.late ];
      [ "sequence gaps"; cell_i run.seq_gaps ];
      [ "malformed packets"; cell_i run.malformed ];
      [ "window occupancy"; Tiered.Report.cell_pct run.occupancy ];
      [ "re-tiers"; cell_i s.retiers ];
      [ "fallbacks"; cell_i s.fallbacks ];
      [ "re-tier p50 (ms)"; cell_of s.p50_ms ];
      [ "re-tier p99 (ms)"; cell_of s.p99_ms ];
      [ "re-tier max (ms)"; cell_of s.max_ms ];
      [ "seg evaluations"; cell_i s.evaluations ];
      [ "re-tier wall (s)"; Tiered.Report.cell_f run.retier_s ];
      [ "wall (s)"; Tiered.Report.cell_f run.wall_s ];
    ]

let json_oi = function None -> "null" | Some v -> string_of_int v
let json_of = function None -> "null" | Some v -> Printf.sprintf "%.4f" v

let to_json s run =
  Printf.sprintf
    {|{"records": %d, "records_per_s": %.1f, "ingest_records_per_s": %.1f, "dropped_dup": %s, "late": %d, "seq_gaps": %d, "malformed": %d, "occupancy": %.4f, "wall_s": %.4f, "retier_s": %.4f, "retiers": %d, "fallbacks": %d, "evaluations": %d, "p50_retier_ms": %s, "p99_retier_ms": %s, "max_retier_ms": %s}|}
    run.records run.records_per_s (ingest_records_per_s run)
    (json_oi run.dropped_dup) run.late run.seq_gaps run.malformed
    run.occupancy run.wall_s run.retier_s s.retiers
    s.fallbacks s.evaluations (json_of s.p50_ms) (json_of s.p99_ms) (json_of s.max_ms)
