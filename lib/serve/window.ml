type decay =
  | No_decay
  | Exponential of { half_life_bins : float }
  | Diurnal of { amplitude : float; peak_bin : int }

type params = { bin_s : int; bins : int; decay : decay }

type cell = {
  c_src : Flowgen.Ipv4.t;
  c_dst : Flowgen.Ipv4.t;
  c_uid : int;
  ring : float array;  (* bytes per bin, indexed by [bin mod bins] *)
  mutable c_last : int;  (* the bin [ring] is valid up to (inclusive) *)
}

(* Endpoint pair -> cell, with a typed hash and field-wise equality (no
   [caml_hash] or [compare_val] call per record). The table is never
   traversed (snapshots walk [order]), so the hash reaches no output. *)
module Index = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d

  let hash (src, dst) = Tbl.hash_ints src dst
end)

type t = {
  p : params;
  index : cell Index.t;
  mutable order : cell list;  (* reverse first-appearance order *)
  mutable count : int;
  mutable cur : int;  (* -1 before any observation *)
  mutable first : int;  (* bin of the first observation; -1 before *)
  mutable late : int;
}

let create ?(expected = 1024) p =
  if p.bin_s < 1 then invalid_arg "Serve.Window: bin_s < 1";
  if p.bins < 1 then invalid_arg "Serve.Window: bins < 1";
  (match p.decay with
  | No_decay -> ()
  | Exponential { half_life_bins } ->
      if not (half_life_bins > 0. && Float.is_finite half_life_bins) then
        invalid_arg "Serve.Window: exponential half-life must be positive"
  | Diurnal { amplitude; _ } ->
      if not (amplitude >= 0. && amplitude <= 1.) then
        invalid_arg "Serve.Window: diurnal amplitude outside [0, 1]");
  {
    p;
    index = Index.create expected;
    order = [];
    count = 0;
    cur = -1;
    first = -1;
    late = 0;
  }

let params t = t.p

let bin_of_time p time =
  if time < 0. then invalid_arg "Serve.Window.bin_of_time: negative time";
  int_of_float (time /. float_of_int p.bin_s)

(* Positive remainder: OCaml's [mod] takes the dividend's sign, so a
   negative left operand indexes out of bounds. Every ring-index
   computation goes through here. *)
let pmod a m =
  let r = a mod m in
  if r < 0 then r + m else r

(* Ring slots between a cell's last-written bin and [bin] hold bytes
   from bins that have since slid out; zero them before writing. Lazy
   per-cell catch-up keeps [advance_to] O(1) — no traversal of the flow
   table on the hot ingest path. *)
let catch_up ~bins cell ~bin =
  if bin > cell.c_last then begin
    let gap = bin - cell.c_last in
    let steps = if gap > bins then bins else gap in
    for k = 1 to steps do
      cell.ring.(pmod (bin - steps + k) bins) <- 0.
    done;
    cell.c_last <- bin
  end

let advance_to t ~bin = if bin > t.cur then t.cur <- bin

let observe t ~src ~dst ~bytes ~bin =
  if bin < 0 then invalid_arg "Serve.Window.observe: negative bin";
  advance_to t ~bin;
  if t.first < 0 then t.first <- bin;
  if bin <= t.cur - t.p.bins then begin
    t.late <- t.late + 1;
    false
  end
  else begin
    let key = (Flowgen.Ipv4.to_int src, Flowgen.Ipv4.to_int dst) in
    let cell =
      match Index.find t.index key with
      | c -> c
      | exception Not_found ->
          let c =
            {
              c_src = src;
              c_dst = dst;
              c_uid = t.count;
              ring = Array.make t.p.bins 0.;
              c_last = bin;
            }
          in
          Index.add t.index key c;
          t.order <- c :: t.order;
          t.count <- t.count + 1;
          c
    in
    catch_up ~bins:t.p.bins cell ~bin;
    cell.ring.(bin mod t.p.bins) <- cell.ring.(bin mod t.p.bins) +. bytes;
    true
  end

let current_bin t = t.cur
let flow_count t = t.count
let late t = t.late

type flow_rate = {
  f_src : Flowgen.Ipv4.t;
  f_dst : Flowgen.Ipv4.t;
  f_uid : int;
  f_mbps : float;
}

type snapshot = {
  s_bin : int;
  s_flows : flow_rate array;
  s_occupancy : float;
  s_late : int;
}

let two_pi = 8. *. atan 1.

(* The unique window bin a ring slot holds: the [b <= cur] congruent to
   [slot] mod [bins] within the window ([mod] of a negative is negative
   in OCaml, hence [pmod]). *)
let bin_of_slot ~bins ~cur slot = cur - pmod (cur - slot) bins

let weight p ~cur ~slot =
  let b = bin_of_slot ~bins:p.bins ~cur slot in
  match p.decay with
  | No_decay -> 1.
  | Exponential { half_life_bins } ->
      0.5 ** (float_of_int (cur - b) /. half_life_bins)
  | Diurnal { amplitude; peak_bin } ->
      1.
      +. amplitude
         *. cos (two_pi *. float_of_int (b - peak_bin) /. float_of_int p.bins)

let snapshot t =
  let bins = t.p.bins in
  let weights = Array.init bins (fun slot -> weight t.p ~cur:t.cur ~slot) in
  (* Normalize by the whole window's weight mass, not just occupied
     bins: a half-full window reads as half the steady-state rate,
     exactly like the batch pipeline averaging over a fixed capture
     window. [s_occupancy] reports the warm-up state. *)
  let denom =
    Numerics.Stats.sum weights *. float_of_int t.p.bin_s *. 1e6
  in
  (* Slots whose bin predates time zero (a window not yet full) carry
     no bytes; zeroing their weight here keeps the per-cell loop a flat
     multiply-accumulate — it runs once per flow per snapshot. *)
  let live =
    Array.init bins (fun slot ->
        if bin_of_slot ~bins ~cur:t.cur slot >= 0 then weights.(slot) else 0.)
  in
  (* Accumulate in ring-slot order, not age order: no-decay and diurnal
     weights are functions of the slot alone, so a window holding the
     same per-bin bytes at a different phase (periodic traffic) sums in
     the same order and produces a bitwise-identical rate — which is
     what lets the re-tier layer recognize it as unchanged. Exponential
     decay is genuinely age-dependent, so there the weight (not the
     summation order) varies per window. *)
  let rate cell =
    catch_up ~bins cell ~bin:t.cur;
    let acc = ref 0. in
    let ring = cell.ring in
    for slot = 0 to bins - 1 do
      acc := !acc +. (ring.(slot) *. live.(slot))
    done;
    !acc *. 8. /. denom
  in
  let flows =
    List.filter_map
      (fun cell ->
        let mbps = rate cell in
        if mbps > 0. then
          Some { f_src = cell.c_src; f_dst = cell.c_dst; f_uid = cell.c_uid; f_mbps = mbps }
        else None)
      (List.rev t.order)
  in
  let occupancy =
    if t.first < 0 then 0.
    else
      let span = t.cur - t.first + 1 in
      float_of_int (if span > bins then bins else span) /. float_of_int bins
  in
  {
    s_bin = t.cur;
    s_flows = Array.of_list flows;
    s_occupancy = occupancy;
    s_late = t.late;
  }
