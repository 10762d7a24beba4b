(* The binary wire codec (Flowgen.Netflow.Wire): NetFlow v5 + minimal
   IPFIX encode/decode round trips, per-exporter sequence accounting,
   and the never-raises contract on truncated or hostile input. *)

open Flowgen.Netflow

let ip = Flowgen.Ipv4.of_int

let rec_ ?(router = 0) ?(src_port = 1000) ?(dst_port = 80) ?(proto = 6)
    ?(packets = 3.) ~src ~dst ~bytes ~first_s ~last_s () =
  {
    src = ip src;
    dst = ip dst;
    src_port;
    dst_port;
    proto;
    bytes;
    packets;
    first_s;
    last_s;
    router;
  }

let check_record name (a : record) (b : record) =
  Alcotest.(check int) (name ^ ": src") (Flowgen.Ipv4.to_int a.src)
    (Flowgen.Ipv4.to_int b.src);
  Alcotest.(check int) (name ^ ": dst") (Flowgen.Ipv4.to_int a.dst)
    (Flowgen.Ipv4.to_int b.dst);
  Alcotest.(check int) (name ^ ": src_port") a.src_port b.src_port;
  Alcotest.(check int) (name ^ ": dst_port") a.dst_port b.dst_port;
  Alcotest.(check int) (name ^ ": proto") a.proto b.proto;
  Alcotest.(check (float 0.)) (name ^ ": bytes") a.bytes b.bytes;
  Alcotest.(check (float 0.)) (name ^ ": packets") a.packets b.packets;
  Alcotest.(check int) (name ^ ": first_s") a.first_s b.first_s;
  Alcotest.(check int) (name ^ ": last_s") a.last_s b.last_s;
  Alcotest.(check int) (name ^ ": router") a.router b.router

let check_stream name originals wire =
  let decoded, c = Wire.decode_string wire in
  Alcotest.(check int)
    (name ^ ": count")
    (List.length originals) (List.length decoded);
  List.iteri
    (fun i (a, b) ->
      check_record (Printf.sprintf "%s[%d]" name i) (Wire.normalize a) b)
    (List.combine originals decoded);
  Alcotest.(check int) (name ^ ": no gaps") 0 c.Wire.c_seq_gaps;
  Alcotest.(check int) (name ^ ": no malformed") 0 c.Wire.c_malformed;
  c

let test_v5_roundtrip () =
  (* Fractional counters round to the wire integers; everything else is
     carried exactly. *)
  let originals =
    [
      rec_ ~src:0x0A000001 ~dst:0xC0A80102 ~bytes:1500.6 ~packets:2.4
        ~first_s:0 ~last_s:3600 ();
      rec_ ~router:3 ~src_port:443 ~proto:17 ~src:7 ~dst:9 ~bytes:64.
        ~packets:1. ~first_s:7200 ~last_s:7201 ();
      rec_ ~router:3 ~src:8 ~dst:10 ~bytes:0. ~packets:0. ~first_s:7200
        ~last_s:7200 ();
    ]
  in
  let wire = String.concat "" (Wire.encode originals) in
  let c = check_stream "v5" originals wire in
  (* Router 0's record and router 3's run: two packets. *)
  Alcotest.(check int) "packets" 2 c.Wire.c_packets;
  Alcotest.(check int) "records" 3 c.Wire.c_records

let test_ipfix_roundtrip () =
  (* Counters past 32 bits and router ids past 255 both force IPFIX;
     the 64-bit fields carry them exactly. *)
  let originals =
    [
      rec_ ~src:1 ~dst:2 ~bytes:6.0e9 ~packets:5.0e6 ~first_s:100
        ~last_s:4_300_000 ();
      rec_ ~router:1000 ~src:3 ~dst:4 ~bytes:512. ~packets:1. ~first_s:5
        ~last_s:6 ();
    ]
  in
  let wire = String.concat "" (Wire.encode originals) in
  ignore (check_stream "ipfix" originals wire)

let test_mixed_stream_order () =
  (* v5 and IPFIX packets interleave in one stream; decode preserves
     record order across format boundaries. *)
  let big i = 5.0e9 +. float_of_int i and small i = 100. +. float_of_int i in
  let originals =
    List.init 10 (fun i ->
        rec_ ~src:(i + 1) ~dst:(i + 100)
          ~bytes:(if i mod 2 = 0 then big i else small i)
          ~first_s:(i * 10)
          ~last_s:((i * 10) + 5)
          ())
  in
  let packets = Wire.encode originals in
  (* Strict alternation: every record flips format, so each gets its
     own packet. *)
  Alcotest.(check int) "one packet per flip" 10 (List.length packets);
  ignore (check_stream "mixed" originals (String.concat "" packets))

let test_sequence_gap_accounting () =
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  (* v5 sequence counts flows: a jump of 5 flows on one exporter. *)
  let wire =
    Wire.encode_v5 ~router:0 ~seq:0 [ r 0; r 1 ]
    ^ Wire.encode_v5 ~router:0 ~seq:7 [ r 2 ]
  in
  let _, c = Wire.decode_string wire in
  Alcotest.(check int) "flow gap" 5 c.Wire.c_seq_gaps;
  (* Exporters are independent: router 1 starting at an arbitrary seq
     is not a gap, and neither is the v5/IPFIX family split on the
     same router id. *)
  let wire =
    Wire.encode_v5 ~router:0 ~seq:0 [ r 0 ]
    ^ Wire.encode_v5 ~router:1 ~seq:900 [ r 1 ]
    ^ Wire.encode_ipfix ~router:0 ~seq:77 [ r 2 ]
    ^ Wire.encode_v5 ~router:0 ~seq:1 [ r 3 ]
    ^ Wire.encode_ipfix ~router:0 ~seq:78 [ r 4 ]
  in
  let recs, c = Wire.decode_string wire in
  Alcotest.(check int) "no cross-exporter gaps" 0 c.Wire.c_seq_gaps;
  Alcotest.(check int) "all decoded" 5 (List.length recs);
  (* Reordered (seq going backwards) is not a gap either — only
     forward jumps count missing data. *)
  let wire =
    Wire.encode_v5 ~router:0 ~seq:5 [ r 0 ] ^ Wire.encode_v5 ~router:0 ~seq:2 [ r 1 ]
  in
  let _, c = Wire.decode_string wire in
  Alcotest.(check int) "no negative gaps" 0 c.Wire.c_seq_gaps

let test_truncated_tail () =
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  let good = Wire.encode_v5 ~router:0 ~seq:0 [ r 0; r 1 ] in
  let next = Wire.encode_v5 ~router:0 ~seq:2 [ r 2 ] in
  (* Cut the second packet mid-record: the first decodes, the stump is
     one malformed frame, and nothing raises. *)
  let wire = good ^ String.sub next 0 (String.length next - 7) in
  let recs, c = Wire.decode_string wire in
  Alcotest.(check int) "whole packet decoded" 2 (List.length recs);
  Alcotest.(check int) "stump counted" 1 c.Wire.c_malformed;
  (* Cut inside the header too. *)
  let wire = good ^ String.sub next 0 5 in
  let _, c = Wire.decode_string wire in
  Alcotest.(check int) "short header counted" 1 c.Wire.c_malformed

let test_garbage_never_raises () =
  (* Deterministic pseudo-random byte strings, raw and appended to a
     valid packet: decode must terminate with counters, never raise. *)
  let lcg = ref 12345 in
  let next_byte () =
    lcg := ((!lcg * 1103515245) + 12_345) land 0x3FFF_FFFF;
    Char.chr (!lcg land 0xFF)
  in
  let garbage n = String.init n (fun _ -> next_byte ()) in
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  let good = Wire.encode_v5 ~router:0 ~seq:0 [ r ] in
  List.iter
    (fun n ->
      let g = garbage n in
      (* Raw garbage: must terminate (never raise). *)
      ignore (Wire.decode_string g);
      let recs, c = Wire.decode_string (good ^ g) in
      Alcotest.(check bool)
        (Printf.sprintf "good record survives %d-byte tail" n)
        true
        (List.length recs >= 1 && c.Wire.c_records >= 1))
    [ 0; 1; 2; 3; 16; 24; 47; 48; 100; 1000 ]

let test_record_sanity_skipped () =
  (* A record whose Last precedes First is dropped and counted, the
     rest of the packet survives. Patch the wire bytes directly. *)
  let r t = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:t ~last_s:(t + 1) () in
  let wire = Bytes.of_string (Wire.encode_v5 ~router:0 ~seq:0 [ r 10; r 20 ]) in
  (* Record 0's Last (header 24 + record offset 28): set to 4ms, i.e.
     before its First of 10_000 ms. *)
  Bytes.set_int32_be wire (24 + 28) 4l;
  let recs, c = Wire.decode_string (Bytes.to_string wire) in
  Alcotest.(check int) "bad record dropped" 1 (List.length recs);
  Alcotest.(check int) "counted malformed" 1 c.Wire.c_malformed;
  Alcotest.(check int) "survivor intact" 20 (List.hd recs).first_s

let test_boot_epoch_reconstruction () =
  (* A v5 exporter with a nonzero boot epoch: First/Last are uptime-
     relative and must be rebased through unix_secs - sys_uptime. Start
     from the encoder's pinned packet and move the clock by hand. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:100 ~last_s:200 () in
  let wire = Bytes.of_string (Wire.encode_v5 ~router:0 ~seq:0 [ r ]) in
  (* Boot at 50s: unix_secs = 300, sys_uptime = 250_000 ms, and the
     record stamps become uptime-relative (first 50_000, last 150_000). *)
  Bytes.set_int32_be wire 4 250_000l;
  Bytes.set_int32_be wire 8 300l;
  Bytes.set_int32_be wire 12 0l;
  Bytes.set_int32_be wire (24 + 24) 50_000l;
  Bytes.set_int32_be wire (24 + 28) 150_000l;
  let recs, c = Wire.decode_string (Bytes.to_string wire) in
  Alcotest.(check int) "clean" 0 c.Wire.c_malformed;
  let d = List.hd recs in
  Alcotest.(check int) "first rebased" 100 d.first_s;
  Alcotest.(check int) "last rebased" 200 d.last_s

let test_ipfix_foreign_sets () =
  (* Template/options sets (unknown ids) are skipped; a data set after
     them still decodes; a data set with a broken stride is counted
     malformed without killing the message. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  let data = Wire.encode_ipfix ~router:0 ~seq:0 [ r ] in
  (* Splice a foreign set (id 2, 8 bytes) between header and data set:
     rebuild the message with an adjusted length. *)
  let data_set = String.sub data 16 (String.length data - 16) in
  let total = 16 + 8 + String.length data_set in
  let b = Bytes.make total '\000' in
  Bytes.blit_string data 0 b 0 16;
  Bytes.set_uint16_be b 2 total;
  Bytes.set_uint16_be b 16 2 (* template set id *);
  Bytes.set_uint16_be b 18 8;
  Bytes.blit_string data_set 0 b 24 (String.length data_set);
  let recs, c = Wire.decode_string (Bytes.to_string b) in
  Alcotest.(check int) "data set survives foreign set" 1 (List.length recs);
  Alcotest.(check int) "clean" 0 c.Wire.c_malformed;
  (* Now corrupt the data set's length to a non-multiple stride. *)
  let bad = Bytes.of_string data in
  Bytes.set_uint16_be bad 2 (String.length data - 1);
  Bytes.set_uint16_be bad 18 (4 + 48 - 1);
  let recs, c =
    Wire.decode_string (Bytes.sub_string bad 0 (String.length data - 1))
  in
  Alcotest.(check int) "stride mismatch drops set" 0 (List.length recs);
  Alcotest.(check bool) "stride mismatch counted" true (c.Wire.c_malformed >= 1)

let test_empty_ipfix_message () =
  (* A 16-byte header-only IPFIX message is valid framing: no records,
     no malformed count, and the stream continues past it. *)
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  let empty = Bytes.make 16 '\000' in
  Bytes.set_uint16_be empty 0 10;
  Bytes.set_uint16_be empty 2 16;
  let wire = Bytes.to_string empty ^ Wire.encode_v5 ~router:0 ~seq:0 [ r ] in
  let recs, c = Wire.decode_string wire in
  Alcotest.(check int) "record after empty message" 1 (List.length recs);
  Alcotest.(check int) "clean" 0 c.Wire.c_malformed;
  Alcotest.(check int) "both frames counted" 2 c.Wire.c_packets

let test_channel_reader () =
  (* write_file + of_channel round trip — the wire-replay and `serve --from`
     path. *)
  let originals =
    List.init 100 (fun i ->
        rec_ ~router:(i mod 3) ~src:(i + 1) ~dst:(i + 500)
          ~bytes:(float_of_int (1000 + i))
          ~first_s:i ~last_s:(i + 2) ())
  in
  let path = Filename.temp_file "wire_test" ".nf" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Wire.write_file path originals;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let reader = Wire.of_channel ic in
          let decoded = Wire.read_all reader in
          Alcotest.(check int) "all back" 100 (List.length decoded);
          List.iteri
            (fun i (a, b) ->
              check_record (Printf.sprintf "file[%d]" i) (Wire.normalize a) b)
            (List.combine originals decoded);
          Alcotest.(check int) "no gaps" 0 (Wire.seq_gaps reader);
          Alcotest.(check int) "no malformed" 0 (Wire.malformed reader);
          Alcotest.(check int) "records counted" 100 (Wire.records reader)))

let test_encode_rejects_uncodable () =
  let r = rec_ ~src:1 ~dst:2 ~bytes:10. ~first_s:(-5) ~last_s:1 () in
  Alcotest.check_raises "negative time" (Invalid_argument "")
    (fun () ->
      try ignore (Wire.encode [ r ]) with Invalid_argument _ ->
        raise (Invalid_argument ""));
  let r = rec_ ~router:70_000 ~src:1 ~dst:2 ~bytes:10. ~first_s:0 ~last_s:1 () in
  Alcotest.check_raises "router too wide" (Invalid_argument "")
    (fun () ->
      try ignore (Wire.encode [ r ]) with Invalid_argument _ ->
        raise (Invalid_argument ""))

let test_ipfix_trailing_bytes () =
  (* 1-3 bytes after the last set cannot hold a set header: the tail is
     counted malformed once and the records before it are kept. Zero
     trailing bytes stay clean. *)
  let r i = rec_ ~src:(i + 1) ~dst:2 ~bytes:10. ~first_s:i ~last_s:(i + 1) () in
  let msg = Wire.encode_ipfix ~router:3 ~seq:0 [ r 0; r 1 ] in
  List.iter
    (fun tail ->
      let b = Bytes.make (String.length msg + tail) '\xAB' in
      Bytes.blit_string msg 0 b 0 (String.length msg);
      Bytes.set_uint16_be b 2 (Bytes.length b);
      let after = Wire.encode_v5 ~router:0 ~seq:0 [ r 5 ] in
      let recs, c = Wire.decode_string (Bytes.to_string b ^ after) in
      let name = Printf.sprintf "%d trailing bytes" tail in
      Alcotest.(check int) (name ^ ": records kept") 3 (List.length recs);
      Alcotest.(check int) (name ^ ": malformed") (if tail = 0 then 0 else 1)
        c.Wire.c_malformed;
      Alcotest.(check int) (name ^ ": no gaps") 0 c.Wire.c_seq_gaps)
    [ 0; 1; 2; 3 ]

(* --- in-memory records against the wire ---------------------------------- *)

(* A generated stream: the records in wire order and the packets that
   carry them. Up to [packets] packets, each v5 (1-[v5_max] records,
   32-bit counters, router < 256), IPFIX (1-[ipfix_max] records, 64-bit
   counters) or header-only IPFIX; sequence numbers follow exporter
   semantics, so a clean decode has no gaps. *)
let gen_stream ~packets ~v5_max ~ipfix_max =
  let open QCheck.Gen in
  let gen_record ~v5 ~router =
    let* src = int_bound 0xFFFF_FFFF
    and* dst = int_bound 0xFFFF_FFFF
    and* src_port = int_bound 0xFFFF
    and* dst_port = int_bound 0xFFFF
    and* proto = if v5 then int_bound 0xFF else int_bound 0xFFFF
    and* bytes = if v5 then int_bound 0xFFFF_FFFF else int_bound (1 lsl 50)
    and* packets = if v5 then int_bound 0xFFFF_FFFF else int_bound (1 lsl 40)
    and* first_s = int_bound (if v5 then 4_000_000 else 1 lsl 40)
    and* dur = int_bound 10_000 in
    return
      (rec_ ~router ~src_port ~dst_port ~proto ~packets:(float_of_int packets)
         ~src ~dst ~bytes:(float_of_int bytes) ~first_s ~last_s:(first_s + dur) ())
  in
  let gen_packet =
    let* kind = int_bound 9 in
    if kind = 0 then return `Empty
    else
      let v5 = kind <= 5 in
      let* router = if v5 then int_bound 0xFF else int_bound 0xFFFF_FFFF in
      let* n = if v5 then 1 -- v5_max else 1 -- ipfix_max in
      let+ recs = list_repeat n (gen_record ~v5 ~router) in
      if v5 then `V5 (router, recs) else `Ipfix (router, recs)
  in
  let+ packets = list_size (0 -- packets) gen_packet in
  let seqs = Hashtbl.create 8 in
  let next key n =
    let s = Option.value ~default:0 (Hashtbl.find_opt seqs key) in
    Hashtbl.replace seqs key (s + n);
    s
  in
  let empty =
    let b = Bytes.make 16 '\000' in
    Bytes.set_uint16_be b 0 10;
    Bytes.set_uint16_be b 2 16;
    Bytes.to_string b
  in
  List.fold_left
    (fun (recs, pkts) p ->
      match p with
      | `Empty -> (recs, empty :: pkts)
      | `V5 (router, rs) ->
          let seq = next (router, 5) (List.length rs) in
          (List.rev_append rs recs, Wire.encode_v5 ~router ~seq rs :: pkts)
      | `Ipfix (router, rs) ->
          let seq = next (router, 10) (List.length rs) in
          (List.rev_append rs recs, Wire.encode_ipfix ~router ~seq rs :: pkts))
    ([], []) packets
  |> fun (recs, pkts) -> (List.rev recs, List.rev pkts)

let bits = Int64.bits_of_float

let same_record (a : record) (b : record) =
  Flowgen.Ipv4.equal a.src b.src
  && Flowgen.Ipv4.equal a.dst b.dst
  && a.src_port = b.src_port && a.dst_port = b.dst_port && a.proto = b.proto
  && Int64.equal (bits a.bytes) (bits b.bytes)
  && Int64.equal (bits a.packets) (bits b.packets)
  && a.first_s = b.first_s && a.last_s = b.last_s && a.router = b.router

let same_records a b = List.length a = List.length b && List.for_all2 same_record a b

(* A reader over [s] whose refill hands out at most the next chunk size
   (cycling through [chunks]) per call, like a socket returning short
   reads. *)
let chunked_reader s chunks =
  let pos = ref 0 and i = ref 0 in
  let chunks = Array.of_list chunks in
  Wire.of_refill (fun b off len ->
      let c = chunks.(!i mod Array.length chunks) in
      incr i;
      let k = Stdlib.min (Stdlib.min len c) (String.length s - !pos) in
      Bytes.blit_string s !pos b off k;
      pos := !pos + k;
      k)

let print_stream (recs, pkts) =
  Printf.sprintf "%d records in %d packets (%s bytes)" (List.length recs)
    (List.length pkts)
    (String.concat "+" (List.map (fun p -> string_of_int (String.length p)) pkts))

let prop_chunked_decode =
  QCheck.Test.make ~name:"chunked wire decode = decode_string = normalized records"
    ~count:300
    (QCheck.make
       ~print:(fun (st, chunks) ->
         print_stream st ^ " chunks " ^ QCheck.Print.(list int) chunks)
       QCheck.Gen.(
         pair
           (gen_stream ~packets:12 ~v5_max:30 ~ipfix_max:80)
           (list_size (1 -- 6) (1 -- 200))))
    (fun ((recs, pkts), chunks) ->
      let wire = String.concat "" pkts in
      let whole, c = Wire.decode_string wire in
      let reader = chunked_reader wire chunks in
      let pulled = Wire.read_all reader in
      same_records whole pulled
      && same_records (List.map Wire.normalize recs) whole
      && c.Wire.c_packets = List.length pkts
      && c.Wire.c_records = List.length recs
      && c.Wire.c_seq_gaps = 0 && c.Wire.c_malformed = 0
      && Wire.packets reader = c.Wire.c_packets
      && Wire.records reader = c.Wire.c_records
      && Wire.seq_gaps reader = 0 && Wire.malformed reader = 0)

let prop_truncation =
  QCheck.Test.make ~name:"truncation at every byte offset never raises" ~count:20
    (QCheck.make ~print:print_stream (gen_stream ~packets:4 ~v5_max:3 ~ipfix_max:3))
    (fun (_, pkts) ->
      let wire = String.concat "" pkts in
      let full, _ = Wire.decode_string wire in
      (* Packet boundaries: a cut there is a clean, shorter stream. *)
      let bounds =
        List.fold_left (fun acc p -> (List.hd acc + String.length p) :: acc) [ 0 ] pkts
      in
      List.for_all
        (fun n ->
          match Wire.decode_string (String.sub wire 0 n) with
          | recs, c ->
              let k = List.length recs in
              k <= List.length full
              && same_records recs (List.filteri (fun i _ -> i < k) full)
              && c.Wire.c_malformed = if List.mem n bounds then 0 else 1
          | exception e ->
              QCheck.Test.fail_reportf "cut at %d raised %s" n (Printexc.to_string e))
        (List.init (String.length wire + 1) Fun.id))

let suite =
  [
    Alcotest.test_case "v5 round trip" `Quick test_v5_roundtrip;
    Alcotest.test_case "ipfix round trip" `Quick test_ipfix_roundtrip;
    Alcotest.test_case "mixed stream order" `Quick test_mixed_stream_order;
    Alcotest.test_case "sequence gap accounting" `Quick test_sequence_gap_accounting;
    Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
    Alcotest.test_case "garbage never raises" `Quick test_garbage_never_raises;
    Alcotest.test_case "record sanity skipped" `Quick test_record_sanity_skipped;
    Alcotest.test_case "boot epoch reconstruction" `Quick test_boot_epoch_reconstruction;
    Alcotest.test_case "ipfix foreign sets" `Quick test_ipfix_foreign_sets;
    Alcotest.test_case "empty ipfix message" `Quick test_empty_ipfix_message;
    Alcotest.test_case "channel reader" `Quick test_channel_reader;
    Alcotest.test_case "encode rejects uncodable" `Quick test_encode_rejects_uncodable;
    Alcotest.test_case "ipfix trailing bytes" `Quick test_ipfix_trailing_bytes;
    QCheck_alcotest.to_alcotest prop_chunked_decode;
    QCheck_alcotest.to_alcotest prop_truncation;
  ]
