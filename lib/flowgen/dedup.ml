type key = {
  k_src : Ipv4.t;
  k_dst : Ipv4.t;
  k_src_port : int;
  k_dst_port : int;
  k_proto : int;
  k_first_s : int;
}

let key_of_record (r : Netflow.record) =
  {
    k_src = r.src;
    k_dst = r.dst;
    k_src_port = r.src_port;
    k_dst_port = r.dst_port;
    k_proto = r.proto;
    k_first_s = r.first_s;
  }

(* Streaming duplicate suppression. The batch [dedup] keeps the
   lowest-router observation of each key, which needs the whole input in
   hand; a long-running ingest loop cannot retract bytes it already
   accumulated, so the streaming contract is first-observation-wins.
   The two agree on every byte count: synthesized duplicates carry the
   same [bytes] at every observing router (per-bin noise is shared, see
   Netflow.synthesize), so only the [router] attribution differs. *)
module Stream = struct
  (* Under the nondecreasing-[first_s] ingest contract a flow's records
     arrive window by window, so a duplicate is exactly a record whose
     [first_s] equals the last one kept for its 5-tuple. Remembering
     only that last value keeps the table the size of the live flow
     universe — not universe x windows — which keeps the per-record
     lookup in cache on the daemon's hot path. *)
  type flow_key = {
    s_src : Ipv4.t;
    s_dst : Ipv4.t;
    s_src_port : int;
    s_dst_port : int;
    s_proto : int;
  }

  (* A typed hash and field-wise equality: no [caml_hash] or
     [compare_val] call per lookup on the hot path. Each endpoint packs
     with its port into 48 bits. The table is never traversed (retire
     order comes from [arrivals]), so the hash reaches no output. *)
  module Tbl = Hashtbl.Make (struct
    type t = flow_key

    let equal a b =
      Int.equal (Ipv4.to_int a.s_src) (Ipv4.to_int b.s_src)
      && Int.equal (Ipv4.to_int a.s_dst) (Ipv4.to_int b.s_dst)
      && Int.equal a.s_src_port b.s_src_port
      && Int.equal a.s_dst_port b.s_dst_port
      && Int.equal a.s_proto b.s_proto

    let hash k =
      let s = (Ipv4.to_int k.s_src lsl 16) lor k.s_src_port in
      let d = (Ipv4.to_int k.s_dst lsl 16) lor k.s_dst_port in
      Tbl.hash_ints s d lxor k.s_proto
  end)

  (* [fs] is the last [first_s] kept for the key, updated in place. *)
  type entry = { mutable fs : int }

  type t = {
    last : entry Tbl.t;
    arrivals : (flow_key * int) Queue.t;  (* fresh keeps, in order *)
    mutable dropped : int;
  }

  let create ?(expected = 4096) () =
    { last = Tbl.create expected; arrivals = Queue.create (); dropped = 0 }

  let flow_key (r : Netflow.record) =
    {
      s_src = r.src;
      s_dst = r.dst;
      s_src_port = r.src_port;
      s_dst_port = r.dst_port;
      s_proto = r.proto;
    }

  let observe t (r : Netflow.record) =
    let key = flow_key r in
    match Tbl.find t.last key with
    | e when Int.equal e.fs r.first_s ->
        t.dropped <- t.dropped + 1;
        false
    | e ->
        e.fs <- r.first_s;
        Queue.add (key, r.first_s) t.arrivals;
        true
    | exception Not_found ->
        Tbl.add t.last key { fs = r.first_s };
        Queue.add (key, r.first_s) t.arrivals;
        true

  let dropped t = t.dropped
  let distinct t = Tbl.length t.last

  let forget_before t ~first_s =
    (* Retire 5-tuples that have gone idle so the table does not grow
       with flow churn over a long-running stream. Entries are retired
       lazily off the arrival queue; a key re-observed since its queue
       entry was pushed has a fresher entry further down, so it is left
       alone here. Requires the ingest contract: a late record older
       than a retired horizon would be seen as fresh again. *)
    let stale () =
      match Queue.peek_opt t.arrivals with
      | Some (_, fs) -> fs < first_s
      | None -> false
    in
    while stale () do
      let key, _ = Queue.pop t.arrivals in
      match Tbl.find t.last key with
      | e when e.fs < first_s -> Tbl.remove t.last key
      | _ | (exception Not_found) -> ()
    done
end

let dedup records =
  let best : (key, Netflow.record) Hashtbl.t = Hashtbl.create 4096 in
  let order = ref [] in
  List.iter
    (fun (r : Netflow.record) ->
      let key = key_of_record r in
      match Hashtbl.find_opt best key with
      | None ->
          Hashtbl.add best key r;
          order := key :: !order
      | Some kept -> if r.router < kept.router then Hashtbl.replace best key r)
    records;
  List.rev_map (fun key -> Hashtbl.find best key) !order

let duplicate_count records = List.length records - List.length (dedup records)
