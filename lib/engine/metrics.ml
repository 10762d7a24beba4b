type task = { label : string; wall_s : float }

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type snapshot = {
  tasks : task list;
  jobs : int;
  backend : string;
  worker_restarts : int;
  wall_s : float;
  busy_s : float;
  utilization : float;
  domain_busy_s : float array;
  load_balance : float;
  caches : (string * Cache.stats) list;
  disk : Cache.disk_stats option;
  gc : gc option;
}

type t = {
  mutex : Mutex.t;
  mutable rev_tasks : task list;
  mutable jobs : int;
  mutable backend : string;
  mutable worker_restarts : int;
  mutable wall_s : float;
  mutable domain_busy : float array;
  mutable gc : gc option;
}

let create () =
  {
    mutex = Mutex.create ();
    rev_tasks = [];
    jobs = 1;
    backend = "domains";
    worker_restarts = 0;
    wall_s = 0.;
    domain_busy = [||];
    gc = None;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let record t ~label ~wall_s =
  with_lock t.mutex (fun () -> t.rev_tasks <- { label; wall_s } :: t.rev_tasks)

let set_jobs t jobs = with_lock t.mutex (fun () -> t.jobs <- max 1 jobs)
let set_backend t backend = with_lock t.mutex (fun () -> t.backend <- backend)

let set_worker_restarts t n =
  with_lock t.mutex (fun () -> t.worker_restarts <- max 0 n)

let set_wall t wall_s = with_lock t.mutex (fun () -> t.wall_s <- wall_s)

let set_domain_busy t busy =
  with_lock t.mutex (fun () -> t.domain_busy <- Array.copy busy)

let set_gc t gc = with_lock t.mutex (fun () -> t.gc <- Some gc)

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

let time t ~label f =
  let t0 = Unix.gettimeofday () in
  let finally () = record t ~label ~wall_s:(Unix.gettimeofday () -. t0) in
  Fun.protect ~finally f

let snapshot t =
  let tasks, jobs, backend, worker_restarts, wall_s, domain_busy_s, gc =
    with_lock t.mutex (fun () ->
        ( List.rev t.rev_tasks,
          t.jobs,
          t.backend,
          t.worker_restarts,
          t.wall_s,
          Array.copy t.domain_busy,
          t.gc ))
  in
  let busy_s =
    List.fold_left (fun acc (k : task) -> acc +. k.wall_s) 0. tasks
  in
  let utilization =
    if wall_s > 0. && jobs > 0 then busy_s /. (float_of_int jobs *. wall_s)
    else 0.
  in
  let load_balance =
    let n = Array.length domain_busy_s in
    if n = 0 then 0.
    else
      let sum = Array.fold_left ( +. ) 0. domain_busy_s in
      let mean = sum /. float_of_int n in
      if mean > 0. then Array.fold_left Float.max 0. domain_busy_s /. mean
      else 0.
  in
  {
    tasks;
    jobs;
    backend;
    worker_restarts;
    wall_s;
    busy_s;
    utilization;
    domain_busy_s;
    load_balance;
    caches = Cache.all_stats ();
    disk = Cache.disk_stats ();
    gc;
  }

(* --- rendering ----------------------------------------------------------- *)

let task_rows s =
  List.map
    (fun k ->
      [
        k.label;
        Printf.sprintf "%.3f" k.wall_s;
        (if s.busy_s > 0. then
           Printf.sprintf "%.1f%%" (100. *. k.wall_s /. s.busy_s)
         else "-");
      ])
    s.tasks

let gc_rows (s : snapshot) =
  match s.gc with
  | None -> []
  | Some g ->
      [
        [ "minor words"; Printf.sprintf "%.0f" g.minor_words ];
        [ "promoted words"; Printf.sprintf "%.0f" g.promoted_words ];
        [ "minor collections"; string_of_int g.minor_collections ];
        [ "major collections"; string_of_int g.major_collections ];
      ]

let cache_rows s =
  List.map
    (fun (name, (c : Cache.stats)) ->
      let served = c.Cache.hits + c.Cache.disk_hits in
      let lookups = served + c.Cache.misses in
      [
        name;
        string_of_int c.Cache.hits;
        string_of_int c.Cache.disk_hits;
        string_of_int c.Cache.misses;
        (if lookups > 0 then
           Printf.sprintf "%.1f%%"
             (100. *. float_of_int served /. float_of_int lookups)
         else "-");
      ])
    s.caches

(* --- JSON ---------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let to_json (s : snapshot) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" s.jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"backend\": \"%s\",\n" (json_escape s.backend));
  Buffer.add_string buf
    (Printf.sprintf "  \"worker_restarts\": %d,\n" s.worker_restarts);
  Buffer.add_string buf
    (Printf.sprintf "  \"wall_s\": %s,\n" (json_float s.wall_s));
  Buffer.add_string buf
    (Printf.sprintf "  \"busy_s\": %s,\n" (json_float s.busy_s));
  Buffer.add_string buf
    (Printf.sprintf "  \"utilization\": %s,\n" (json_float s.utilization));
  Buffer.add_string buf
    (Printf.sprintf "  \"load_balance\": %s,\n" (json_float s.load_balance));
  Buffer.add_string buf "  \"domain_busy_s\": [";
  Array.iteri
    (fun i b ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (json_float b))
    s.domain_busy_s;
  Buffer.add_string buf "],\n";
  (match s.disk with
  | None -> Buffer.add_string buf "  \"disk\": null,\n"
  | Some d ->
      Buffer.add_string buf
        (Printf.sprintf
           "  \"disk\": {\"dir\": \"%s\", \"bytes\": %d, \"max_bytes\": %s, \
            \"evictions\": %d},\n"
           (json_escape d.Cache.dir) d.Cache.bytes
           (match d.Cache.max_bytes with
           | Some b -> string_of_int b
           | None -> "null")
           d.Cache.evictions));
  (match s.gc with
  | None -> Buffer.add_string buf "  \"gc\": null,\n"
  | Some g ->
      Buffer.add_string buf
        (Printf.sprintf
           "  \"gc\": {\"minor_words\": %.0f, \"promoted_words\": %.0f, \
            \"minor_collections\": %d, \"major_collections\": %d},\n"
           g.minor_words g.promoted_words g.minor_collections
           g.major_collections));
  Buffer.add_string buf "  \"tasks\": [";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    {\"label\": \"%s\", \"wall_s\": %s}"
           (json_escape k.label) (json_float k.wall_s)))
    s.tasks;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"caches\": [";
  List.iteri
    (fun i (name, (c : Cache.stats)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"name\": \"%s\", \"hits\": %d, \"disk_hits\": %d, \
            \"misses\": %d}"
           (json_escape name) c.Cache.hits c.Cache.disk_hits c.Cache.misses))
    s.caches;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
