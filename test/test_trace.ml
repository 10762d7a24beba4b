open Flowgen

let sample_records () =
  let rng = Numerics.Rng.create 5 in
  Netflow.synthesize ~rng
    [
      {
        Netflow.gt_src = Ipv4.of_string "10.0.0.1";
        gt_dst = Ipv4.of_string "10.1.0.1";
        gt_mbps = 3.;
        gt_routers = [ 0; 1 ];
      };
    ]

let with_temp_file f =
  let path = Filename.temp_file "trace_test" ".csv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_roundtrip () =
  with_temp_file (fun path ->
      let records = sample_records () in
      Trace.save ~path records;
      let loaded = Trace.load ~path in
      Alcotest.(check int) "count" (List.length records) (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "record" (Netflow.to_csv_line a) (Netflow.to_csv_line b))
        records loaded)

let test_empty_roundtrip () =
  with_temp_file (fun path ->
      Trace.save ~path [];
      Alcotest.(check int) "empty" 0 (List.length (Trace.load ~path)))

let test_append () =
  with_temp_file (fun path ->
      let records = sample_records () in
      Trace.save ~path records;
      Trace.append ~path records;
      Alcotest.(check int) "doubled" (2 * List.length records)
        (List.length (Trace.load ~path)))

let test_bad_header () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not,a,header\n";
      close_out oc;
      match Trace.load ~path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "accepted bad header")

let test_malformed_record_line () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc (Netflow.csv_header ^ "\n");
      output_string oc "garbage line\n";
      close_out oc;
      match Trace.load ~path with
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "mentions line number" true
            (String.length msg > 0
            && String.sub msg (String.length msg - 1) 1 = "2")
      | _ -> Alcotest.fail "accepted malformed record")

let test_summarize () =
  let records = sample_records () in
  let s = Trace.summarize records in
  Alcotest.(check bool) "mentions count" true
    (String.length s > 0 && s <> "empty trace");
  Alcotest.(check string) "empty trace" "empty trace" (Trace.summarize [])

(* /dev/full accepts the open and fails every write with ENOSPC; the
   records fit in the channel buffer, so the failure surfaces only at the
   final flush, which each writer must report as [Sys_error]. *)
let test_writers_report_failed_flush () =
  if Sys.file_exists "/dev/full" then begin
    let records = sample_records () in
    let raises_sys_error name write =
      match write () with
      | () -> Alcotest.failf "%s: a failed flush passed silently" name
      | exception Sys_error _ -> ()
    in
    raises_sys_error "save" (fun () -> Trace.save ~path:"/dev/full" records);
    raises_sys_error "append" (fun () -> Trace.append ~path:"/dev/full" records);
    raises_sys_error "wire" (fun () -> Netflow.Wire.write_file "/dev/full" records)
  end

let suite =
  [
    Alcotest.test_case "save/load roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "empty roundtrip" `Quick test_empty_roundtrip;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "bad header" `Quick test_bad_header;
    Alcotest.test_case "malformed record" `Quick test_malformed_record_line;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "writers report a failed flush" `Quick
      test_writers_report_failed_flush;
  ]
