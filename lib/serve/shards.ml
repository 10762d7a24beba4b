type t = { dedup : Flowgen.Dedup.Stream.t option; window : Window.t }

let create ?(expected = 1024) ~shards ~dedup wp =
  if shards <> 1 then invalid_arg "Serve.Shards: shards <> 1";
  let expected = Stdlib.max 16 expected in
  {
    dedup = (if dedup then Some (Flowgen.Dedup.Stream.create ~expected ()) else None);
    window = Window.create ~expected wp;
  }

let window_params t = Window.params t.window
let dedup_enabled t = Option.is_some t.dedup

(* The record goes through dedup and the window at once, so no record
   outlives its observe. *)
let observe t r =
  let keep =
    match t.dedup with
    | None -> true
    | Some dd -> Flowgen.Dedup.Stream.observe dd r
  in
  if keep then
    let bin =
      Window.bin_of_time (Window.params t.window)
        (float_of_int r.Flowgen.Netflow.first_s)
    in
    ignore
      (Window.observe t.window ~src:r.Flowgen.Netflow.src
         ~dst:r.Flowgen.Netflow.dst ~bytes:r.Flowgen.Netflow.bytes ~bin)

let pending _ = 0

(* Advance the ring, retire dedup keys the window can no longer hold,
   then snapshot. *)
let snapshot t ~bin ~retire_s =
  Window.advance_to t.window ~bin;
  (match t.dedup with
  | Some dd -> Flowgen.Dedup.Stream.forget_before dd ~first_s:retire_s
  | None -> ());
  Window.snapshot t.window

let flow_count t = Window.flow_count t.window
let late t = Window.late t.window

let dropped_dup t = Option.map Flowgen.Dedup.Stream.dropped t.dedup
