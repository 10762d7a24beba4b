(* Shared plumbing for the benchmark: clocks, nearest-rank quantiles,
   process memory, GC deltas, in-memory spans, scratch files and child
   processes. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds used so far, user + system, by this process (all its
   domains) and by its reaped children. Unlike wall time it leaves out
   the time the hypervisor gave this VM's CPUs to someone else ("steal"),
   which on the reference host ran from 1 % to 35 % of the CPU time and
   moved wall-time medians by up to half between runs. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* [f]'s result, wall seconds and CPU seconds. *)
let time_cpu f =
  let w0 = now () and c0 = cpu_now () in
  let r = f () in
  (r, now () -. w0, cpu_now () -. c0)

(* --- statistics ---------------------------------------------------------- *)

(* Nearest-rank percentile ([p] in [0, 100]) of an unsorted sample. *)
let percentile xs ~p =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs ~p:50.
let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b > 0. then a /. b else 0.

(* --- process memory ------------------------------------------------------ *)

(* A field of /proc/self/status in MiB ("VmHWM" is the peak resident
   set since the process started). *)
let status_mb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let prefix = field ^ ":" in
          let plen = String.length prefix in
          let rec go () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line when String.length line > plen && String.sub line 0 plen = prefix ->
                Scanf.sscanf (String.sub line plen (String.length line - plen)) " %d"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> go ()
          in
          go ())

let peak_rss_mb () = status_mb "VmHWM"

(* Total and stolen CPU ticks of the host so far (the aggregate "cpu"
   line of /proc/stat; steal is the 8th field): time a hypervisor gave
   this VM's virtual CPUs to someone else. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
          | "cpu" :: fields ->
              let ticks = List.filter_map int_of_string_opt fields in
              (List.fold_left ( + ) 0 ticks, match List.nth_opt ticks 7 with Some s -> s | None -> 0)
          | _ | (exception End_of_file) -> (0, 0))

(* Share of the CPU time during [f] that the host stole. *)
let with_steal f =
  let t0, s0 = cpu_ticks () in
  let r = f () in
  let t1, s1 = cpu_ticks () in
  (r, ratio (float_of_int (s1 - s0)) (float_of_int (t1 - t0)))

(* --- GC deltas ----------------------------------------------------------- *)

type gc = { minor : float; major : float; minor_words : float; promoted : float }

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor = float_of_int (b.Gc.minor_collections - a.Gc.minor_collections);
      major = float_of_int (b.Gc.major_collections - a.Gc.major_collections);
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted = b.Gc.promoted_words -. a.Gc.promoted_words;
    } )

let gc_sum gs =
  List.fold_left
    (fun a b ->
      {
        minor = a.minor +. b.minor;
        major = a.major +. b.major;
        minor_words = a.minor_words +. b.minor_words;
        promoted = a.promoted +. b.promoted;
      })
    { minor = 0.; major = 0.; minor_words = 0.; promoted = 0. }
    gs

let gc_units =
  [ ("gc.minor_collections", "count"); ("gc.major_collections", "count"); ("gc.minor_words", "words");
    ("gc.promoted_words", "words") ]

let gc_metrics g =
  [
    ("gc.minor_collections", g.minor);
    ("gc.major_collections", g.major);
    ("gc.minor_words", g.minor_words);
    ("gc.promoted_words", g.promoted);
  ]

(* --- spans --------------------------------------------------------------- *)

(* One layer call seen from the benchmark. [parent] indexes the span
   list ([-1] for a root); [id] is the shared identifier of the unit of
   work (cell, window or replay index). [busy] is the time actually
   spent in the layer: the duration for an ordinary span, the summed
   per-call time for an aggregate span that stands for many short calls
   (one per record) between [start] and [stop]. *)
type span = {
  name : string;
  id : int;
  parent : int;
  start : float;
  mutable stop : float;
  mutable busy : float;
}

type tracer = { mutable spans : span list; mutable count : int }

let tracer () = { spans = []; count = 0 }

let add tr sp =
  tr.spans <- sp :: tr.spans;
  tr.count <- tr.count + 1;
  tr.count - 1

(* A span around [f]; returns [f]'s result and the span. [f] receives
   the span's index, which children name as their parent. *)
let span tr ~name ~id ~parent f =
  let start = now () in
  let sp = { name; id; parent; start; stop = start; busy = 0. } in
  let idx = add tr sp in
  let r = f idx in
  sp.stop <- now ();
  sp.busy <- sp.stop -. start;
  (r, sp)

let spans tr = List.rev tr.spans

(* Share of the root spans' time that no direct child's busy time
   covers. *)
let uncovered_share spans =
  let arr = Array.of_list spans in
  let child_busy = Array.make (Array.length arr) 0. in
  Array.iter
    (fun sp -> if sp.parent >= 0 then child_busy.(sp.parent) <- child_busy.(sp.parent) +. sp.busy)
    arr;
  let root = ref 0. and covered = ref 0. in
  Array.iteri
    (fun i sp ->
      if sp.parent < 0 then begin
        root := !root +. sp.busy;
        covered := !covered +. Float.min sp.busy child_busy.(i)
      end)
    arr;
  ratio (!root -. !covered) !root

let write_spans path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun sp ->
          Printf.fprintf oc
            "{\"name\":%S,\"id\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"busy\":%.9f}\n"
            sp.name sp.id sp.parent sp.start sp.stop sp.busy)
        spans)

(* --- scratch files --------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Marshal.to_channel oc v [ Marshal.No_sharing ])

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Marshal.from_channel ic)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- child processes ------------------------------------------------------- *)

let child_flag = "--perfbench-child"

(* Run this executable as a child on [args] and wait for it; fails
   unless it exits 0. Output goes to stderr so the parent's stdout ends
   with its own result line. *)
let run_child args =
  let argv = Array.of_list ((Sys.executable_name :: child_flag :: args)) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  let rec wait () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | _, status -> status
  in
  match wait () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "benchmark child exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "benchmark child killed by signal %d" n)

(* --- results --------------------------------------------------------------- *)

(* What one measuring process hands back to the parent (marshalled
   through a scratch file). *)
type result = {
  wall_ms : float list;  (** untraced unit wall times *)
  cpu_ms : float list;  (** the same units' CPU times *)
  traced_ms : float list;  (** traced unit wall times (trace runs only) *)
  items : int;  (** work items (cells, records, windows) in the untraced units *)
  attempted : int;
  failed : int;
  rss_mb : float;  (** VmHWM of the measuring process *)
  layers : (string * float) list;  (** per-layer metrics (trace runs only) *)
  spans : span list;
  digest : string;  (** digest of the outputs, compared across processes *)
}

let empty_result =
  {
    wall_ms = [];
    cpu_ms = [];
    traced_ms = [];
    items = 0;
    attempted = 0;
    failed = 0;
    rss_mb = 0.;
    layers = [];
    spans = [];
    digest = "";
  }

(* Per-unit mean of each layer metric over several traced units. *)
let mean_layers units =
  match units with
  | [] -> []
  | first :: _ ->
      let n = float_of_int (List.length units) in
      List.map
        (fun (name, _) ->
          (name, sum (List.map (fun l -> List.assoc name l) units) /. n))
        first
