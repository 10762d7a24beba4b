type record = {
  src : Ipv4.t;
  dst : Ipv4.t;
  src_port : int;
  dst_port : int;
  proto : int;
  bytes : float;
  packets : float;
  first_s : int;
  last_s : int;
  router : int;
}

let pp_record ppf r =
  Format.fprintf ppf "%s:%d -> %s:%d proto=%d bytes=%.0f pkts=%.0f [%d,%d) @r%d"
    (Ipv4.to_string r.src) r.src_port (Ipv4.to_string r.dst) r.dst_port r.proto
    r.bytes r.packets r.first_s r.last_s r.router

let csv_header = "src,dst,src_port,dst_port,proto,bytes,packets,first_s,last_s,router"

let to_csv_line r =
  Printf.sprintf "%s,%s,%d,%d,%d,%.3f,%.3f,%d,%d,%d" (Ipv4.to_string r.src)
    (Ipv4.to_string r.dst) r.src_port r.dst_port r.proto r.bytes r.packets
    r.first_s r.last_s r.router

let of_csv_line line =
  match String.split_on_char ',' line with
  | [ src; dst; sp; dp; proto; bytes; packets; first_s; last_s; router ] -> (
      try
        {
          src = Ipv4.of_string src;
          dst = Ipv4.of_string dst;
          src_port = int_of_string sp;
          dst_port = int_of_string dp;
          proto = int_of_string proto;
          bytes = float_of_string bytes;
          packets = float_of_string packets;
          first_s = int_of_string first_s;
          last_s = int_of_string last_s;
          router = int_of_string router;
        }
      with Failure _ -> invalid_arg ("Netflow.of_csv_line: malformed line: " ^ line))
  | _ -> invalid_arg ("Netflow.of_csv_line: malformed line: " ^ line)

type ground_truth = {
  gt_src : Ipv4.t;
  gt_dst : Ipv4.t;
  gt_mbps : float;
  gt_routers : int list;
}

let day_seconds = 86_400

type shape = {
  bins : int;
  diurnal_amplitude : float;
  peak_hour : float;
  noise_cv : float;
}

let default_shape =
  { bins = 24; diurnal_amplitude = 0.5; peak_hour = 20.0; noise_cv = 0.15 }

let bytes_per_mbit_second = 125_000.

(* Common application ports weighted towards web traffic. *)
let port_choices = [| 443; 80; 443; 8080; 443; 22; 53; 993; 443; 25 |]

let synthesize ?(shape = default_shape) ~rng gts =
  if shape.bins <= 0 then invalid_arg "Netflow.synthesize: bins must be positive";
  if shape.diurnal_amplitude < 0. || shape.diurnal_amplitude >= 1. then
    invalid_arg "Netflow.synthesize: diurnal_amplitude out of [0, 1)";
  let bin_seconds = day_seconds / shape.bins in
  (* Normalized diurnal weights: mean exactly one so totals are exact. *)
  let weights =
    Array.init shape.bins (fun b ->
        let hour = float_of_int b *. 24. /. float_of_int shape.bins in
        1.
        +. shape.diurnal_amplitude
           *. cos (2. *. Float.pi *. (hour -. shape.peak_hour) /. 24.))
  in
  let weight_mean = Numerics.Stats.mean weights in
  let weights = Array.map (fun w -> w /. weight_mean) weights in
  let records = ref [] in
  List.iter
    (fun gt ->
      if gt.gt_mbps < 0. then invalid_arg "Netflow.synthesize: negative rate";
      if gt.gt_routers = [] then invalid_arg "Netflow.synthesize: flow with no observing router";
      let src_port = 1024 + Numerics.Rng.int rng 64_000 in
      let dst_port = Numerics.Rng.choose rng port_choices in
      let proto = if Numerics.Rng.float rng < 0.9 then 6 else 17 in
      (* Per-bin noise is shared across routers: every router sees the
         same wire traffic. *)
      let bin_bytes =
        Array.init shape.bins (fun b ->
            let noise =
              if Float.equal shape.noise_cv 0. then 1.
              else Numerics.Dist.lognormal_of_mean_cv rng ~mean:1. ~cv:shape.noise_cv
            in
            gt.gt_mbps *. bytes_per_mbit_second
            *. float_of_int bin_seconds *. weights.(b) *. noise)
      in
      List.iter
        (fun router ->
          Array.iteri
            (fun b bytes ->
              let packets = Float.max 1. (bytes /. 1000.) in
              records :=
                {
                  src = gt.gt_src;
                  dst = gt.gt_dst;
                  src_port;
                  dst_port;
                  proto;
                  bytes;
                  packets;
                  first_s = b * bin_seconds;
                  last_s = (b + 1) * bin_seconds;
                  router;
                }
                :: !records)
            bin_bytes)
        gt.gt_routers)
    gts;
  List.rev !records

(* ------------------------------------------------------------------ *)
(* Binary wire codec: NetFlow v5 and a minimal IPFIX data record.      *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  let v5_header_len = 24
  let v5_record_len = 48
  let v5_max_records = 30
  let ipfix_header_len = 16
  let ipfix_set_id = 256
  let ipfix_record_len = 48
  let max_packet_len = 65_535

  (* Unsigned big-endian accessors. [get_u32] returns a plain int (the
     host is 64-bit; lint forbids nothing here), [get_u64] may round
     through Int64 for byte counters only. *)
  let get_u16 b off = Bytes.get_uint16_be b off
  let get_u8 b off = Char.code (Bytes.get b off)
  let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF
  let get_u64 b off = Bytes.get_int64_be b off
  let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)
  let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xFF))
  let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int (v land 0xFFFF_FFFF))
  let set_u64 b off v = Bytes.set_int64_be b off v

  (* Floor division: millisecond timestamps can go negative when an
     exporter's boot epoch reconstruction lands before the capture
     epoch; truncating division would round those towards zero. *)
  let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

  type counters = {
    mutable c_packets : int;
    mutable c_records : int;
    mutable c_seq_gaps : int;
    mutable c_malformed : int;
  }

  let fresh_counters () =
    { c_packets = 0; c_records = 0; c_seq_gaps = 0; c_malformed = 0 }

  (* ---------------------------- encode ---------------------------- *)

  let u32_max_f = 4_294_967_296.

  (* A record fits NetFlow v5 iff its counters fit 32 bits and its
     timestamps fit the 32-bit SysUptime millisecond clock. *)
  let v5_fits r =
    let o = Float.round r.bytes and p = Float.round r.packets in
    o >= 0. && o < u32_max_f && p >= 0. && p < u32_max_f
    && r.first_s >= 0
    && r.last_s >= 0
    && r.last_s <= 4_294_967 (* last_s * 1000 must fit u32 *)
    && r.router >= 0 && r.router <= 0xFF

  (* Encoder convention: boot epoch 0. SysUptime is set to the export
     millisecond and unix_secs/unix_nsecs to the same instant, so the
     decoder's boot reconstruction [unix_ms - sys_uptime] is exactly 0
     and First/Last round-trip to [first_s]/[last_s] without loss. *)
  let encode_v5 ~router ~seq records =
    let n = List.length records in
    if n < 1 || n > v5_max_records then
      invalid_arg "Netflow.Wire.encode_v5: record count out of [1, 30]";
    let export_s =
      List.fold_left (fun acc r -> Stdlib.max acc r.last_s) 0 records
    in
    let export_ms = export_s * 1000 in
    let b = Bytes.make (v5_header_len + (n * v5_record_len)) '\000' in
    set_u16 b 0 5;
    set_u16 b 2 n;
    set_u32 b 4 export_ms;
    set_u32 b 8 export_s;
    set_u32 b 12 0;
    set_u32 b 16 seq;
    set_u8 b 20 0;
    set_u8 b 21 router;
    set_u16 b 22 0;
    List.iteri
      (fun i r ->
        let off = v5_header_len + (i * v5_record_len) in
        set_u32 b off (Ipv4.to_int r.src);
        set_u32 b (off + 4) (Ipv4.to_int r.dst);
        set_u32 b (off + 8) 0 (* nexthop *);
        set_u16 b (off + 12) 0;
        set_u16 b (off + 14) 0 (* input/output ifindex *);
        set_u32 b (off + 16) (int_of_float (Float.round r.packets));
        set_u32 b (off + 20) (int_of_float (Float.round r.bytes));
        set_u32 b (off + 24) (r.first_s * 1000);
        set_u32 b (off + 28) (r.last_s * 1000);
        set_u16 b (off + 32) r.src_port;
        set_u16 b (off + 34) r.dst_port;
        set_u8 b (off + 37) 0 (* tcp_flags *);
        set_u8 b (off + 38) r.proto;
        set_u8 b (off + 39) 0 (* tos *))
      records;
    Bytes.unsafe_to_string b

  let encode_ipfix ~router ~seq records =
    let n = List.length records in
    if n < 1 then invalid_arg "Netflow.Wire.encode_ipfix: empty packet";
    let set_len = 4 + (n * ipfix_record_len) in
    let total = ipfix_header_len + set_len in
    if total > max_packet_len then
      invalid_arg "Netflow.Wire.encode_ipfix: packet too large";
    let export_s =
      List.fold_left (fun acc r -> Stdlib.max acc r.last_s) 0 records
    in
    let b = Bytes.make total '\000' in
    set_u16 b 0 10;
    set_u16 b 2 total;
    set_u32 b 4 export_s;
    set_u32 b 8 seq;
    set_u32 b 12 router;
    set_u16 b 16 ipfix_set_id;
    set_u16 b 18 set_len;
    List.iteri
      (fun i r ->
        let off = ipfix_header_len + 4 + (i * ipfix_record_len) in
        set_u32 b off (Ipv4.to_int r.src);
        set_u32 b (off + 4) (Ipv4.to_int r.dst);
        set_u16 b (off + 8) r.src_port;
        set_u16 b (off + 10) r.dst_port;
        set_u16 b (off + 12) r.proto;
        set_u16 b (off + 14) 0 (* pad *);
        set_u64 b (off + 16) (Int64.of_float (Float.round r.bytes));
        set_u64 b (off + 24) (Int64.of_float (Float.round r.packets));
        set_u64 b (off + 32) (Int64.of_int (r.first_s * 1000));
        set_u64 b (off + 40) (Int64.of_int (r.last_s * 1000)))
      records;
    Bytes.unsafe_to_string b

  (* Streams records into packets, preserving order. Consecutive records
     from the same router share a packet; v5 when all counters fit 32
     bits, IPFIX (64-bit counters) otherwise. Sequence numbers follow
     exporter semantics: v5 counts flows, IPFIX counts data records. *)
  let encode records =
    let packets = ref [] in
    let seqs : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let seq_key ~v5 router = (router lsl 1) lor (if v5 then 1 else 0) in
    let flush ~v5 ~router batch =
      match List.rev batch with
      | [] -> ()
      | recs ->
          let key = seq_key ~v5 router in
          let seq = Option.value ~default:0 (Hashtbl.find_opt seqs key) in
          let n = List.length recs in
          let pkt =
            if v5 then encode_v5 ~router ~seq recs
            else encode_ipfix ~router ~seq recs
          in
          Hashtbl.replace seqs key (seq + n);
          packets := pkt :: !packets
    in
    let batch = ref [] and b_n = ref 0 and b_v5 = ref true and b_router = ref (-1) in
    List.iter
      (fun r ->
        let v5 = v5_fits r in
        if (not (r.router >= 0 && r.router <= 0xFFFF)) || r.first_s < 0 then
          invalid_arg "Netflow.Wire.encode: record not encodable";
        if
          !b_n > 0
          && (!b_router <> r.router || !b_v5 <> v5 || !b_n >= v5_max_records)
        then begin
          flush ~v5:!b_v5 ~router:!b_router !batch;
          batch := [];
          b_n := 0
        end;
        b_v5 := v5;
        b_router := r.router;
        batch := r :: !batch;
        incr b_n)
      records;
    if !b_n > 0 then flush ~v5:!b_v5 ~router:!b_router !batch;
    List.rev !packets

  let write_channel oc records =
    List.iter (fun pkt -> output_string oc pkt) (encode records)

  let write_file path records =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> write_channel oc records)

  (* ---------------------------- decode ---------------------------- *)

  (* Pull-based framed reader. The buffer never holds more than one
     packet (<= 65_535 bytes) and decoding is driven by [read], so a
     stalled consumer exerts backpressure on the channel instead of
     accumulating records: bounded buffering by construction. *)

  (* Most records one packet can carry: a single IPFIX data set filling
     a maximal message (v5 caps at 30). *)
  let max_batch = (max_packet_len - ipfix_header_len - 4) / ipfix_record_len

  (* The decoded records of the last packet, reused across packets:
     decoding writes immediates into two strided arrays, so it
     allocates nothing and keeps no boxed record alive until the
     consumer pulls it; [read] builds each record as it is pulled.
     [pos] is the cursor into [0, len). The arrays start at v5 size and
     grow, at most to [max_batch] records, for larger IPFIX
     messages. *)
  let int_stride = 7 (* src, dst, src_port, dst_port, proto, first_s, last_s *)
  let float_stride = 2 (* bytes, packets *)

  type batch = {
    mutable ints : int array;
    mutable floats : Float.Array.t;
    mutable router : int;
    mutable len : int;
    mutable pos : int;
  }

  type reader = {
    refill : Bytes.t -> int -> int -> int;
    buf : Bytes.t;
    counters : counters;
    seqs : (int, int) Hashtbl.t;  (** (router, family) -> next expected *)
    batch : batch;
    mutable eof : bool;
  }

  let of_refill refill =
    {
      refill;
      buf = Bytes.create max_packet_len;
      counters = fresh_counters ();
      seqs = Hashtbl.create 16;
      batch =
        {
          ints = Array.make (v5_max_records * int_stride) 0;
          floats = Float.Array.make (v5_max_records * float_stride) 0.;
          router = 0;
          len = 0;
          pos = 0;
        };
      eof = false;
    }

  let of_channel ic = of_refill (fun b off len -> input ic b off len)

  let of_string s =
    let pos = ref 0 in
    of_refill (fun b off len ->
        let k = Stdlib.min len (String.length s - !pos) in
        Bytes.blit_string s !pos b off k;
        pos := !pos + k;
        k)

  let seq_gaps r = r.counters.c_seq_gaps
  let malformed r = r.counters.c_malformed
  let packets r = r.counters.c_packets
  let records r = r.counters.c_records

  (* Fill buf[off, off+n) exactly. [`Eof] only at a clean boundary
     (zero bytes read and nothing pending); a partial fill is [`Short]. *)
  let read_exactly r ~off n =
    let got = ref 0 in
    let short = ref false in
    while (not !short) && !got < n do
      let k = r.refill r.buf (off + !got) (n - !got) in
      if k <= 0 then short := true else got := !got + k
    done;
    if !got = n then `Full else if !got = 0 then `Eof else `Short

  let note_seq r ~family ~router ~seq ~units =
    let key = (router lsl 1) lor family in
    (match Hashtbl.find_opt r.seqs key with
    | Some expected ->
        let gap = seq - expected in
        if gap > 0 then r.counters.c_seq_gaps <- r.counters.c_seq_gaps + gap
    | None -> ());
    Hashtbl.replace r.seqs key (seq + units)

  (* Start a packet's batch, with room for [records]; the previous
     packet is fully consumed, so growing may drop its contents. *)
  let reset_batch r ~router ~records =
    let bt = r.batch in
    let cap = Array.length bt.ints / int_stride in
    if records > cap then begin
      let cap = Stdlib.min max_batch (Stdlib.max records (2 * cap)) in
      bt.ints <- Array.make (cap * int_stride) 0;
      bt.floats <- Float.Array.make (cap * float_stride) 0.
    end;
    bt.router <- router;
    bt.len <- 0;
    bt.pos <- 0

  let push_record r ~src ~dst ~src_port ~dst_port ~proto ~bytes ~packets
      ~first_ms ~last_ms =
    let first_s = fdiv first_ms 1000 and last_s = fdiv last_ms 1000 in
    if first_s < 0 || last_s < first_s then
      r.counters.c_malformed <- r.counters.c_malformed + 1
    else begin
      r.counters.c_records <- r.counters.c_records + 1;
      let bt = r.batch in
      let i = bt.len * int_stride and f = bt.len * float_stride in
      bt.ints.(i) <- src;
      bt.ints.(i + 1) <- dst;
      bt.ints.(i + 2) <- src_port;
      bt.ints.(i + 3) <- dst_port;
      bt.ints.(i + 4) <- proto;
      bt.ints.(i + 5) <- first_s;
      bt.ints.(i + 6) <- last_s;
      Float.Array.set bt.floats f bytes;
      Float.Array.set bt.floats (f + 1) packets;
      bt.len <- bt.len + 1
    end

  (* Body of a v5 packet, header already in buf[0, 24) and records in
     buf[24, 24 + 48n). *)
  let decode_v5_body r ~count =
    let b = r.buf in
    let sys_uptime = get_u32 b 4 in
    let unix_secs = get_u32 b 8 in
    let unix_nsecs = get_u32 b 12 in
    let seq = get_u32 b 16 in
    let router = get_u8 b 21 in
    note_seq r ~family:1 ~router ~seq ~units:count;
    reset_batch r ~router ~records:count;
    let boot_ms = (unix_secs * 1000) + (unix_nsecs / 1_000_000) - sys_uptime in
    for i = 0 to count - 1 do
      let off = v5_header_len + (i * v5_record_len) in
      push_record r ~src:(get_u32 b off) ~dst:(get_u32 b (off + 4))
        ~src_port:(get_u16 b (off + 32))
        ~dst_port:(get_u16 b (off + 34))
        ~proto:(get_u8 b (off + 38))
        ~bytes:(float_of_int (get_u32 b (off + 20)))
        ~packets:(float_of_int (get_u32 b (off + 16)))
        ~first_ms:(boot_ms + get_u32 b (off + 24))
        ~last_ms:(boot_ms + get_u32 b (off + 28))
    done

  (* Body of an IPFIX message, fully in buf[0, len). Unknown set ids
     are skipped (templates, options); a recognized data set with a
     stride mismatch counts as malformed, and so do 1-3 bytes left
     after the last set (too short for a set header) — once, keeping
     the records already decoded. *)
  let decode_ipfix_body r ~len =
    let b = r.buf in
    let seq = get_u32 b 8 in
    let router = get_u32 b 12 in
    reset_batch r ~router ~records:((len - ipfix_header_len - 4) / ipfix_record_len);
    let n_records = ref 0 in
    let pos = ref ipfix_header_len in
    let bad = ref false in
    while (not !bad) && !pos + 4 <= len do
      let sid = get_u16 b !pos and slen = get_u16 b (!pos + 2) in
      if slen < 4 || !pos + slen > len then begin
        r.counters.c_malformed <- r.counters.c_malformed + 1;
        bad := true
      end
      else begin
        if sid = ipfix_set_id then
          if (slen - 4) mod ipfix_record_len <> 0 then
            r.counters.c_malformed <- r.counters.c_malformed + 1
          else
            for i = 0 to ((slen - 4) / ipfix_record_len) - 1 do
              let off = !pos + 4 + (i * ipfix_record_len) in
              incr n_records;
              push_record r ~src:(get_u32 b off) ~dst:(get_u32 b (off + 4))
                ~src_port:(get_u16 b (off + 8))
                ~dst_port:(get_u16 b (off + 10))
                ~proto:(get_u16 b (off + 12))
                ~bytes:(Int64.to_float (get_u64 b (off + 16)))
                ~packets:(Int64.to_float (get_u64 b (off + 24)))
                ~first_ms:(Int64.to_int (get_u64 b (off + 32)))
                ~last_ms:(Int64.to_int (get_u64 b (off + 40)))
            done;
        pos := !pos + slen
      end
    done;
    if (not !bad) && !pos < len then
      r.counters.c_malformed <- r.counters.c_malformed + 1;
    note_seq r ~family:0 ~router ~seq ~units:!n_records

  (* Read and decode one frame into the batch. [false] means end of
     stream: clean EOF, or an unrecoverable framing error (counted in
     [malformed] — once the byte stream desynchronizes there is no
     resync point). *)
  let read_frame r =
    match read_exactly r ~off:0 2 with
    | `Eof -> false
    | `Short ->
        r.counters.c_malformed <- r.counters.c_malformed + 1;
        false
    | `Full -> (
        let version = get_u16 r.buf 0 in
        match version with
        | 5 -> (
            match read_exactly r ~off:2 (v5_header_len - 2) with
            | `Eof | `Short ->
                r.counters.c_malformed <- r.counters.c_malformed + 1;
                false
            | `Full -> (
                let count = get_u16 r.buf 2 in
                if count < 1 || count > v5_max_records then begin
                  r.counters.c_malformed <- r.counters.c_malformed + 1;
                  false
                end
                else
                  match
                    read_exactly r ~off:v5_header_len (count * v5_record_len)
                  with
                  | `Eof | `Short ->
                      r.counters.c_malformed <- r.counters.c_malformed + 1;
                      false
                  | `Full ->
                      r.counters.c_packets <- r.counters.c_packets + 1;
                      decode_v5_body r ~count;
                      true))
        | 10 -> (
            match read_exactly r ~off:2 (ipfix_header_len - 2) with
            | `Eof | `Short ->
                r.counters.c_malformed <- r.counters.c_malformed + 1;
                false
            | `Full -> (
                let len = get_u16 r.buf 2 in
                if len < ipfix_header_len then begin
                  r.counters.c_malformed <- r.counters.c_malformed + 1;
                  false
                end
                else if len = ipfix_header_len then begin
                  r.counters.c_packets <- r.counters.c_packets + 1;
                  true
                end
                else
                  match
                    read_exactly r ~off:ipfix_header_len
                      (len - ipfix_header_len)
                  with
                  | `Eof | `Short ->
                      r.counters.c_malformed <- r.counters.c_malformed + 1;
                      false
                  | `Full ->
                      r.counters.c_packets <- r.counters.c_packets + 1;
                      decode_ipfix_body r ~len;
                      true))
        | _ ->
            r.counters.c_malformed <- r.counters.c_malformed + 1;
            false)

  let rec read r =
    let bt = r.batch in
    if bt.pos < bt.len then begin
      let i = bt.pos * int_stride and f = bt.pos * float_stride in
      bt.pos <- bt.pos + 1;
      Some
        {
          src = Ipv4.of_int bt.ints.(i);
          dst = Ipv4.of_int bt.ints.(i + 1);
          src_port = bt.ints.(i + 2);
          dst_port = bt.ints.(i + 3);
          proto = bt.ints.(i + 4);
          bytes = Float.Array.get bt.floats f;
          packets = Float.Array.get bt.floats (f + 1);
          first_s = bt.ints.(i + 5);
          last_s = bt.ints.(i + 6);
          router = bt.router;
        }
    end
    else if r.eof then None
    else if read_frame r then read r
    else begin
      r.eof <- true;
      None
    end

  let read_all r =
    let acc = ref [] in
    let rec go () =
      match read r with
      | Some x ->
          acc := x :: !acc;
          go ()
      | None -> List.rev !acc
    in
    go ()

  let decode_string s =
    let r = of_string s in
    let recs = read_all r in
    (recs, r.counters)

  (* The decoder rounds byte/packet counters to wire integers; tests
     compare against this normal form. *)
  let normalize r =
    { r with bytes = Float.round r.bytes; packets = Float.round r.packets }
end

let total_bytes records =
  Numerics.Stats.sum (Array.of_list (List.map (fun r -> r.bytes) records))

let mbps_of_bytes ~bytes ~seconds =
  if seconds <= 0 then invalid_arg "Netflow.mbps_of_bytes: non-positive window";
  bytes *. 8. /. float_of_int seconds /. 1e6
