(* Golden regression suite: every registry experiment's rendered bytes
   are pinned in test/golden/<id>.expected. Each experiment is re-run
   at jobs=1 and at jobs=$TIERED_GOLDEN_JOBS (default 4) and diffed
   byte-for-byte — locking down both the numbers and the determinism
   of the cell scheduler. On mismatch the actual bytes are dumped to
   golden-diff/ (uploaded by CI) and the failure message points at the
   promote workflow for intentional regenerations. *)

open Tiered

let golden_jobs =
  match Sys.getenv_opt "TIERED_GOLDEN_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 4)
  | None -> 4

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Under `dune runtest` the suite runs in _build/default/test/ next to
   the golden/ deps; when executed from the project root (`dune exec
   test/test_main.exe`) fall back to the source-tree copy. *)
let golden_path id =
  let name = id ^ ".expected" in
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "golden") name

let dump_mismatch ~id ~jobs actual =
  let dir = "golden-diff" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s.jobs%d.actual" id jobs) in
  let oc = open_out_bin path in
  output_string oc actual;
  close_out oc;
  path

let check_experiment id () =
  let expected = read_file (golden_path id) in
  List.iter
    (fun jobs ->
      let actual =
        Runner.render (Runner.run_experiments ~jobs [ Experiment.find id ])
      in
      if not (String.equal expected actual) then
        let path = dump_mismatch ~id ~jobs actual in
        Alcotest.failf
          "golden mismatch for %s at jobs=%d (%d expected vs %d actual \
           bytes); actual dumped to %s — if the change is intentional, \
           regenerate with `make golden-regen` and commit the diff"
          id jobs (String.length expected) (String.length actual) path)
    (1 :: (if golden_jobs = 1 then [] else [ golden_jobs ]))

(* The whole registry in one run: jobs=1 and jobs=N renderings must be
   byte-identical, and both must equal the concatenation of the
   per-experiment goldens (experiments are independent, so rendering
   them together or alone gives the same bytes per table). *)
let check_full_registry () =
  let goldens =
    String.concat ""
      (List.map
         (fun (e : Experiment.t) -> read_file (golden_path e.Experiment.id))
         Experiment.all)
  in
  let serial = Runner.render (Runner.run_experiments ~jobs:1 Experiment.all) in
  let parallel =
    Runner.render (Runner.run_experiments ~jobs:golden_jobs Experiment.all)
  in
  if not (String.equal serial parallel) then
    let path = dump_mismatch ~id:"registry" ~jobs:golden_jobs parallel in
    Alcotest.failf
      "full registry render diverges between jobs=1 and jobs=%d; actual \
       dumped to %s"
      golden_jobs path
  else if not (String.equal serial goldens) then
    let path = dump_mismatch ~id:"registry" ~jobs:1 serial in
    Alcotest.failf
      "full registry render diverges from the concatenated goldens (%d vs %d \
       bytes); actual dumped to %s — regenerate with `make golden-regen` if \
       intentional"
      (String.length goldens) (String.length serial) path

(* The process backend must reproduce the pinned bytes too: table1
   (workload cache) and fig8 (market cache) re-run through a loopback
   worker fleet (what --backend procs and remote run) and diff against
   the same goldens. If the fleet cannot spawn on this host, the pool
   degrades to domains — the bytes must still match either way, so no
   skip is needed. *)
let check_process_backend () =
  List.iter
    (fun id ->
      let expected = read_file (golden_path id) in
      let actual =
        Runner.render
          (Runner.run_experiments ~backend:Engine.Pool.Remote ~jobs:2
             [ Experiment.find id ])
      in
      if not (String.equal expected actual) then
        let path = dump_mismatch ~id:(id ^ ".remote") ~jobs:2 actual in
        Alcotest.failf
          "golden mismatch for %s under --backend remote (%d expected vs %d \
           actual bytes); actual dumped to %s"
          id (String.length expected) (String.length actual) path)
    [ "table1"; "fig8" ]

let suite =
  List.map
    (fun (e : Experiment.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s matches golden at jobs={1,%d}" e.Experiment.id
           golden_jobs)
        `Slow
        (check_experiment e.Experiment.id))
    Experiment.all
  @ [
      Alcotest.test_case "full registry = concatenated goldens, any jobs"
        `Slow check_full_registry;
      Alcotest.test_case "goldens reproduce under the process backend"
        `Slow check_process_backend;
    ]
