(* Inputs of the serve workloads, generated from the benchmark seed, and
   the one place where the serve layers' parameters are built. *)

open Tiered

(* --- parameters ---------------------------------------------------------- *)

(* Mirrors the `tiered-cli serve` defaults: CED demand, the paper's
   alpha / p0, linear cost, 3 tiers, hourly bins over a 24-bin window
   without decay, one shard with dedup, no result cache. Every Retier
   and Shards value in the benchmark comes from here, so a change to
   those parameter types is a change to this block only. *)
let window_params = { Serve.Window.bin_s = 3600; bins = 24; decay = Serve.Window.No_decay }

let retier_params =
  {
    Serve.Retier.spec = Market.Ced;
    alpha = Experiment.Defaults.alpha;
    p0 = Experiment.Defaults.p0;
    n_bundles = 3;
    cost_model = Cost_model.linear ~theta:Experiment.Defaults.theta;
    samples = 8;
    cold_every = 24;
    use_cache = false;
  }

let make_retier w =
  Serve.Retier.create retier_params ~meta_of:(Serve.Retier.meta_of_workload w)

let make_shards w =
  Serve.Shards.create ~expected:(List.length w.Flowgen.Workload.flows) ~shards:1
    ~dedup:true window_params

(* --- posted tiers -------------------------------------------------------- *)

(* The parts of a Retier outcome the benchmark reads. *)
type posted = { cuts : int list; prices : float array; profit : float; n_flows : int }

let posted (o : Serve.Retier.outcome) =
  {
    cuts = o.Serve.Retier.o_cuts;
    prices = o.Serve.Retier.o_prices;
    profit = o.Serve.Retier.o_profit;
    n_flows = o.Serve.Retier.o_n_flows;
  }

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same a b =
  List.equal Int.equal a.cuts b.cuts
  && Array.length a.prices = Array.length b.prices
  && Array.for_all2 bits_equal a.prices b.prices
  && bits_equal a.profit b.profit
  && a.n_flows = b.n_flows

(* Windows of [xs] that differ from [ys] (extra or missing ones
   included). *)
let mismatches xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> acc + List.length rest
    | x :: xs, y :: ys -> go (if same x y then acc else acc + 1) xs ys
  in
  go 0 xs ys

(* --- stream synthesis ------------------------------------------------------ *)

(* Each stream day is synthesized with its own RNG, seeded from the
   benchmark seed and the day, so consecutive days carry different
   per-bin noise. Every 11th flow of the workload is dark on odd days,
   so the flow set changes at day boundaries. *)
let day_seed ~seed ~day = (seed * 1_000_003) + (day * 7_919) + 17

let churn_cohort w =
  let t = Hashtbl.create 1024 in
  List.iter
    (fun (f : Flowgen.Workload.flow) ->
      if f.Flowgen.Workload.id mod 11 = 0 then
        Hashtbl.replace t
          (Flowgen.Ipv4.to_int f.Flowgen.Workload.src_addr, Flowgen.Ipv4.to_int f.Flowgen.Workload.dst_addr)
          ())
    w.Flowgen.Workload.flows;
  t

(* One stream day, stored by column in nondecreasing [first_s] order
   ([order] indexes the columns) and rebuilt into records one at a time
   as they are pulled, instead of a day-long list of boxed records
   sorted by time. For the retier_20k set-up this measured 0.6 GB peak
   RSS and 4.7 s, against 0.8 GB and 6.7 s for the sorted list. *)
type day = {
  src : int array;
  dst : int array;
  src_port : int array;
  dst_port : int array;
  proto : int array;
  router : int array;
  first_s : int array;
  last_s : int array;
  bytes : Float.Array.t;
  packets : Float.Array.t;
  order : int array;
}

let chunk = 2_000

let rec split n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] l in
      c :: split n rest

(* The flows are synthesized in chunks of [chunk] flows, each with its
   own RNG. [order] is a stable counting sort of the records by time bin,
   so within a bin they keep their emission order (flow, then router),
   as a stable sort of one whole-day synthesis would. *)
let synthesize_day ~gt ~churn ~seed ~day =
  let bins = Flowgen.Netflow.default_shape.Flowgen.Netflow.bins in
  let bin_s = Flowgen.Netflow.day_seconds / bins in
  let shift = day * Flowgen.Netflow.day_seconds in
  let cap =
    List.fold_left (fun acc (g : Flowgen.Netflow.ground_truth) -> acc + (bins * List.length g.Flowgen.Netflow.gt_routers)) 0 gt
  in
  let ints () = Array.make cap 0 and floats () = Float.Array.make cap 0. in
  let d =
    {
      src = ints ();
      dst = ints ();
      src_port = ints ();
      dst_port = ints ();
      proto = ints ();
      router = ints ();
      first_s = ints ();
      last_s = ints ();
      bytes = floats ();
      packets = floats ();
      order = [||];
    }
  in
  let n = ref 0 in
  List.iteri
    (fun c flows ->
      let rng = Numerics.Rng.create (day_seed ~seed ~day + (c * 104_729)) in
      List.iter
        (fun (r : Flowgen.Netflow.record) ->
          let src = Flowgen.Ipv4.to_int r.Flowgen.Netflow.src and dst = Flowgen.Ipv4.to_int r.Flowgen.Netflow.dst in
          if not (day mod 2 = 1 && Hashtbl.mem churn (src, dst)) then begin
            let i = !n in
            d.src.(i) <- src;
            d.dst.(i) <- dst;
            d.src_port.(i) <- r.Flowgen.Netflow.src_port;
            d.dst_port.(i) <- r.Flowgen.Netflow.dst_port;
            d.proto.(i) <- r.Flowgen.Netflow.proto;
            d.router.(i) <- r.Flowgen.Netflow.router;
            d.first_s.(i) <- r.Flowgen.Netflow.first_s + shift;
            d.last_s.(i) <- r.Flowgen.Netflow.last_s + shift;
            Float.Array.set d.bytes i r.Flowgen.Netflow.bytes;
            Float.Array.set d.packets i r.Flowgen.Netflow.packets;
            incr n
          end)
        (Flowgen.Netflow.synthesize ~rng flows))
    (split chunk gt);
  let n = !n in
  let bin i = (d.first_s.(i) - shift) / bin_s in
  let start = Array.make (bins + 1) 0 in
  for i = 0 to n - 1 do
    start.(bin i + 1) <- start.(bin i + 1) + 1
  done;
  for b = 1 to bins do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = bin i in
    order.(start.(b)) <- i;
    start.(b) <- start.(b) + 1
  done;
  { d with order }

let record d k =
  let i = d.order.(k) in
  {
    Flowgen.Netflow.src = Flowgen.Ipv4.of_int d.src.(i);
    dst = Flowgen.Ipv4.of_int d.dst.(i);
    src_port = d.src_port.(i);
    dst_port = d.dst_port.(i);
    proto = d.proto.(i);
    bytes = Float.Array.get d.bytes i;
    packets = Float.Array.get d.packets i;
    first_s = d.first_s.(i);
    last_s = d.last_s.(i);
    router = d.router.(i);
  }

(* The records of stream day [day], in nondecreasing [first_s] order. *)
let day_records ~gt ~churn ~seed ~day =
  let d = synthesize_day ~gt ~churn ~seed ~day in
  List.init (Array.length d.order) (record d)

(* A pull source over [days] stream days that synthesizes one day at a
   time, so only one day is live. *)
let day_source ~gt ~churn ~seed ~days =
  let current = ref None and k = ref 0 and day = ref 0 in
  let rec next () =
    match !current with
    | Some d when !k < Array.length d.order ->
        incr k;
        Some (record d (!k - 1))
    | _ when !day < days ->
        current := None;
        current := Some (synthesize_day ~gt ~churn ~seed ~day:!day);
        k := 0;
        incr day;
        next ()
    | _ -> None
  in
  next

(* --- the daemon's loop ------------------------------------------------------ *)

(* The deadline loop of [Serve.Daemon.run], with each layer call passed
   in so the benchmark can time it: [next] pulls a record, [observe]
   buffers it on the shards, [deadline ~bin ~retire_s] drains and
   re-tiers. Deadlines sit on the [every_s] grid anchored at the first
   record; one final deadline covers the stream tail. Returns the
   records pulled. *)
let pump ~every_s ~next ~observe ~deadline =
  let span_s = window_params.Serve.Window.bins * window_params.Serve.Window.bin_s in
  let fire at =
    let bin = Serve.Window.bin_of_time window_params (float_of_int (at - 1)) in
    deadline ~bin ~retire_s:(at - span_s)
  in
  let records = ref 0 and next_deadline = ref min_int and last_seen = ref min_int in
  let rec loop () =
    match next () with
    | None -> ()
    | Some (r : Flowgen.Netflow.record) ->
        incr records;
        let first_s = r.Flowgen.Netflow.first_s in
        if !next_deadline = min_int then next_deadline := first_s + every_s;
        while first_s >= !next_deadline do
          fire !next_deadline;
          next_deadline := !next_deadline + every_s
        done;
        if first_s > !last_seen then last_seen := first_s;
        observe r;
        loop ()
  in
  loop ();
  if !last_seen <> min_int then fire (!last_seen + 1);
  !records
