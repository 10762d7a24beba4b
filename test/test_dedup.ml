open Flowgen

let record ?(src = "10.0.0.1") ?(dst = "10.1.0.1") ?(src_port = 1000)
    ?(first_s = 0) ?(router = 0) ?(bytes = 100.) () =
  {
    Netflow.src = Ipv4.of_string src;
    dst = Ipv4.of_string dst;
    src_port;
    dst_port = 443;
    proto = 6;
    bytes;
    packets = 1.;
    first_s;
    last_s = first_s + 3600;
    router;
  }

let test_keeps_unique () =
  let records = [ record (); record ~src_port:2000 (); record ~first_s:3600 () ] in
  Alcotest.(check int) "nothing dropped" 3 (List.length (Dedup.dedup records))

let test_drops_cross_router_duplicates () =
  let records = [ record ~router:0 (); record ~router:1 (); record ~router:2 () ] in
  let kept = Dedup.dedup records in
  Alcotest.(check int) "one survives" 1 (List.length kept);
  Alcotest.(check int) "lowest router kept" 0 (List.hd kept).Netflow.router

let test_lowest_router_wins_any_order () =
  let records = [ record ~router:5 (); record ~router:1 (); record ~router:3 () ] in
  let kept = Dedup.dedup records in
  Alcotest.(check int) "router 1" 1 (List.hd kept).Netflow.router

let test_different_windows_not_duplicates () =
  let records = [ record ~router:0 ~first_s:0 (); record ~router:1 ~first_s:3600 () ] in
  Alcotest.(check int) "both kept" 2 (List.length (Dedup.dedup records))

let test_duplicate_count () =
  let records =
    [ record ~router:0 (); record ~router:1 (); record ~src_port:7 ~router:0 () ]
  in
  Alcotest.(check int) "one duplicate" 1 (Dedup.duplicate_count records)

let test_order_stable () =
  let records =
    [
      record ~src_port:1 (); record ~src_port:2 (); record ~src_port:3 ();
      record ~src_port:2 ~router:4 ();
    ]
  in
  let ports = List.map (fun (r : Netflow.record) -> r.Netflow.src_port) (Dedup.dedup records) in
  Alcotest.(check (list int)) "first-appearance order" [ 1; 2; 3 ] ports

let test_pipeline_volume_matches_single_router () =
  (* End-to-end: synthesize at 3 routers, dedup, and recover exactly the
     per-router volume. *)
  let rng = Numerics.Rng.create 11 in
  let gt =
    {
      Netflow.gt_src = Ipv4.of_string "10.0.0.1";
      gt_dst = Ipv4.of_string "10.1.0.1";
      gt_mbps = 5.;
      gt_routers = [ 0; 1; 2 ];
    }
  in
  let shape = { Netflow.default_shape with noise_cv = 0. } in
  let records = Netflow.synthesize ~shape ~rng [ gt ] in
  let deduped = Dedup.dedup records in
  let expected = 5. *. 125_000. *. float_of_int Netflow.day_seconds in
  Alcotest.(check (float 1.)) "triple-counting removed" expected
    (Netflow.total_bytes deduped);
  Alcotest.(check (float 1.)) "raw was 3x" (3. *. expected) (Netflow.total_bytes records)

let prop_dedup_idempotent =
  QCheck.Test.make ~name:"dedup is idempotent" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_range 0 3) (int_range 0 3)))
    (fun specs ->
      let records =
        List.map (fun (router, port) -> record ~router ~src_port:port ()) specs
      in
      let once = Dedup.dedup records in
      let twice = Dedup.dedup once in
      List.length once = List.length twice)

(* The streaming dedup against the polymorphic-Hashtbl formulation it
   replaced (5-tuple key, generic hash and structural equality), on
   keys that differ from a base key in exactly one 5-tuple field, with
   [forget_before] interleaved. Every observe verdict, and [dropped]
   and [distinct] after every step, must agree. *)
module Ref_stream = struct
  type t = {
    last : (int * int * int * int * int, int) Hashtbl.t;
    arrivals : ((int * int * int * int * int) * int) Queue.t;
    mutable dropped : int;
  }

  let create () = { last = Hashtbl.create 16; arrivals = Queue.create (); dropped = 0 }

  let key (r : Netflow.record) =
    (Ipv4.to_int r.src, Ipv4.to_int r.dst, r.src_port, r.dst_port, r.proto)

  let observe t (r : Netflow.record) =
    let k = key r in
    match Hashtbl.find_opt t.last k with
    | Some fs when fs = r.first_s ->
        t.dropped <- t.dropped + 1;
        false
    | Some _ | None ->
        Hashtbl.replace t.last k r.first_s;
        Queue.add (k, r.first_s) t.arrivals;
        true

  let forget_before t ~first_s =
    let stale () =
      match Queue.peek_opt t.arrivals with Some (_, fs) -> fs < first_s | None -> false
    in
    while stale () do
      let k, _ = Queue.pop t.arrivals in
      match Hashtbl.find_opt t.last k with
      | Some fs when fs < first_s -> Hashtbl.remove t.last k
      | Some _ | None -> ()
    done
end

(* One field of the base 5-tuple moved by [delta]; field 5 is the base
   key itself. *)
let near_key ~field ~delta ~first_s =
  let base = record ~src:"10.0.0.1" ~dst:"10.1.0.1" ~src_port:1000 ~first_s () in
  let bump ip = Ipv4.of_int ((Ipv4.to_int ip + delta) land 0xFFFF_FFFF) in
  match field with
  | 0 -> { base with Netflow.src = bump base.Netflow.src }
  | 1 -> { base with Netflow.dst = bump base.Netflow.dst }
  | 2 -> { base with Netflow.src_port = base.Netflow.src_port + delta }
  | 3 -> { base with Netflow.dst_port = base.Netflow.dst_port + delta }
  | 4 -> { base with Netflow.proto = base.Netflow.proto + delta }
  | _ -> base

type op = Observe of int * int * int (* field, delta, dt *) | Forget of int

let prop_stream_matches_reference =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (* Up to 61 distinct keys, enough to share hash buckets. *)
          ( 8,
            map3
              (fun f d dt -> Observe (f, d, dt))
              (0 -- 5)
              (oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 256; 65_536; 1 lsl 20; 1 lsl 24 ])
              (frequency [ (4, return 0); (3, 1 -- 3); (1, -2 -- -1) ]) );
          (1, map (fun b -> Forget b) (0 -- 6));
        ])
  in
  let print_op = function
    | Observe (f, d, dt) -> Printf.sprintf "obs(f%d,+%d,dt%d)" f d dt
    | Forget b -> Printf.sprintf "forget(-%d)" b
  in
  QCheck.Test.make ~name:"Dedup.Stream = polymorphic-Hashtbl reference on near keys"
    ~count:500
    (QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (0 -- 300) gen_op))
    (fun ops ->
      let s = Dedup.Stream.create ~expected:1 () and r = Ref_stream.create () in
      let t = ref 0 in
      List.for_all
        (fun op ->
          let verdicts_agree =
            match op with
            | Observe (field, delta, dt) ->
                t := Stdlib.max 0 (!t + dt);
                let rec_ = near_key ~field ~delta ~first_s:!t in
                Bool.equal (Dedup.Stream.observe s rec_) (Ref_stream.observe r rec_)
            | Forget back ->
                Dedup.Stream.forget_before s ~first_s:(!t - back);
                Ref_stream.forget_before r ~first_s:(!t - back);
                true
          in
          verdicts_agree
          && Dedup.Stream.dropped s = r.Ref_stream.dropped
          && Dedup.Stream.distinct s = Hashtbl.length r.Ref_stream.last)
        ops)

let suite =
  [
    Alcotest.test_case "keeps unique records" `Quick test_keeps_unique;
    Alcotest.test_case "drops cross-router duplicates" `Quick test_drops_cross_router_duplicates;
    Alcotest.test_case "lowest router wins" `Quick test_lowest_router_wins_any_order;
    Alcotest.test_case "different windows kept" `Quick test_different_windows_not_duplicates;
    Alcotest.test_case "duplicate count" `Quick test_duplicate_count;
    Alcotest.test_case "stable output order" `Quick test_order_stable;
    Alcotest.test_case "pipeline volume" `Quick test_pipeline_volume_matches_single_router;
    QCheck_alcotest.to_alcotest prop_dedup_idempotent;
    QCheck_alcotest.to_alcotest prop_stream_matches_reference;
  ]
