(* retier_20k: eu_isp@20000 over two stream days of hourly windows. The
   window snapshots are built in set-up by streaming the records through
   [Serve.Shards] (no wire step); the measured part drives a fresh
   [Retier.t] over the windows in order, as many times as needed. *)

open Common

let network = "eu_isp@20000"
let days = 2
let every_s = 3_600
let min_windows = 100
let windows_file dir = Filename.concat dir "windows.bin"

(* --- set-up ---------------------------------------------------------------- *)

(* Returns the shard-layer counts of the stream: records, distinct
   flows, suppressed duplicates. *)
let setup ~seed ~dir =
  let w = Flowgen.Workload.preset network in
  let gt = Flowgen.Workload.to_ground_truth w and churn = Inputs.churn_cohort w in
  let shards = Inputs.make_shards w in
  let windows = ref [] in
  let records =
    Inputs.pump ~every_s
      ~next:(Inputs.day_source ~gt ~churn ~seed ~days)
      ~observe:(Serve.Shards.observe shards)
      ~deadline:(fun ~bin ~retire_s -> windows := Serve.Shards.snapshot shards ~bin ~retire_s :: !windows)
  in
  save (windows_file dir) (List.rev !windows);
  let fl = float_of_int in
  [
    ("shards.flows", fl (Serve.Shards.flow_count shards));
    ("shards.dropped_dup", fl (Option.value ~default:0 (Serve.Shards.dropped_dup shards)));
    ("wire.records", fl records);
  ]

(* --- measuring process ------------------------------------------------------ *)

(* One pass: a fresh Retier.t over every window in order. Returns the
   outcomes and the per-window wall and CPU times (ms). *)
let pass w windows ~traced tr k =
  let retier = Inputs.make_retier w in
  let solve parent i snap =
    let call () = time_cpu (fun () -> Serve.Retier.retier retier snap) in
    let o, wall, cpu =
      if traced then fst (span tr ~name:"retier.retier" ~id:i ~parent (fun _ -> call ())) else call ()
    in
    (o, (1e3 *. wall, 1e3 *. cpu))
  in
  let run parent = Array.mapi (solve parent) windows in
  let outs, gc =
    gc_delta (fun () ->
        if traced then fst (span tr ~name:"pass" ~id:k ~parent:(-1) run) else run (-1))
  in
  (retier, Array.map fst outs, Array.to_list (Array.map snd outs), gc)

let layer_metrics outs ms gc =
  let outs = Array.to_list outs in
  [
    ("retier.retier_s", sum (List.map fst ms) /. 1e3);
    ("retier.evaluations", float_of_int (List.fold_left (fun acc (o : Serve.Retier.outcome) -> acc + o.Serve.Retier.o_evaluations) 0 outs));
    ("retier.fallbacks", float_of_int (List.length (List.filter (fun (o : Serve.Retier.outcome) -> o.Serve.Retier.o_fallback) outs)));
  ]
  @ gc_metrics gc

(* Passes until [seconds] have passed and at least [min_windows]
   untraced windows were timed; in a trace run passes alternate
   untraced / traced. Then every window of the first pass is checked
   against a from-scratch solve, and every later pass against the
   first, bitwise. *)
let measure ~dir ~seconds ~trace =
  let windows = Array.of_list (load (windows_file dir)) in
  let w = Flowgen.Workload.preset network in
  let tr = tracer () in
  let t0 = now () in
  let first = ref None and units = ref [] in
  let rec loop k acc =
    let plain = List.length acc.wall_ms in
    if now () -. t0 >= seconds && plain >= min_windows && ((not trace) || !units <> []) then acc
    else begin
      let traced = trace && k mod 2 = 1 in
      let retier, outs, ms, gc = pass w windows ~traced tr k in
      let posted = Array.to_list (Array.map Inputs.posted outs) in
      let diverged =
        match !first with
        | None ->
            first := Some (retier, outs, posted);
            0
        | Some (_, _, reference) -> Inputs.mismatches reference posted
      in
      let n = Array.length windows in
      let acc = { acc with attempted = acc.attempted + n; failed = acc.failed + diverged } in
      let acc =
        if traced then begin
          units := layer_metrics outs ms gc :: !units;
          { acc with traced_ms = List.map fst ms @ acc.traced_ms }
        end
        else
          {
            acc with
            wall_ms = List.map fst ms @ acc.wall_ms;
            cpu_ms = List.map snd ms @ acc.cpu_ms;
            items = acc.items + n;
          }
      in
      loop (k + 1) acc
    end
  in
  let acc = loop 0 empty_result in
  let rss_mb = peak_rss_mb () in
  let bad, cold_ms =
    match !first with
    | None -> (0, [])
    | Some (retier, outs, _) ->
        let check parent =
          Array.fold_left
            (fun (bad, cold_ms) (i, snap, (o : Serve.Retier.outcome)) ->
              let c, dt =
                if trace then
                  let c, sp = span tr ~name:"retier.solve_cold" ~id:i ~parent (fun _ -> Serve.Retier.solve_cold retier snap) in
                  (c, sp.busy)
                else time (fun () -> Serve.Retier.solve_cold retier snap)
              in
              ((if Inputs.same (Inputs.posted o) (Inputs.posted c) then bad else bad + 1), (1e3 *. dt) :: cold_ms))
            (0, [])
            (Array.mapi (fun i snap -> (i, snap, outs.(i))) windows)
        in
        if trace then fst (span tr ~name:"check" ~id:0 ~parent:(-1) check) else check (-1)
  in
  let layers = if trace then mean_layers !units @ [ ("retier.cold_p50_ms", median cold_ms) ] else [] in
  { acc with failed = acc.failed + bad; rss_mb; layers; spans = spans tr }
