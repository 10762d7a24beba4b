(** Run metrics for pool-driven grids: per-task wall time, cache
    hit/miss counters and pool utilization.

    A {!t} is a passive collector threaded through a run; {!snapshot}
    freezes it (capturing {!Cache.all_stats} at that moment) into a
    value that renders as table rows or JSON. Recording is
    domain-safe, but runners normally record in submission order after
    the parallel section so snapshots are deterministic. *)

type task = { label : string; wall_s : float }

type gc = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** minor-heap words promoted to the major heap *)
  minor_collections : int;
  major_collections : int;
}
(** A {!Gc.quick_stat} delta over a run. It covers this process: the
    calling domain and the pool domains that ran and joined inside the
    measured section, but not fleet worker processes. The
    runtime books a domain's minor words when it empties its minor
    heap, so a run that allocates less than one minor heap can read
    [0]. *)

type snapshot = {
  tasks : task list;  (** submission order; one entry per grid cell *)
  jobs : int;
  backend : string;
      (** execution backend identity ({!Pool.backend_name}):
          ["domains"] or ["remote"] *)
  worker_restarts : int;
      (** worker processes lost and replaced during the run; [0] under
          the domain backend *)
  wall_s : float;  (** whole-run wall-clock time *)
  busy_s : float;  (** sum of task wall times *)
  utilization : float;  (** [busy_s / (jobs * wall_s)]; 0 when unknown *)
  domain_busy_s : float array;
      (** cumulative busy seconds per worker domain ({!Pool.busy_times});
          empty when not recorded *)
  load_balance : float;
      (** max/mean of [domain_busy_s]: [1.0] is perfectly balanced, higher
          means some domain was pinned; [0.] when unknown *)
  caches : (string * Cache.stats) list;
  disk : Cache.disk_stats option;
      (** disk-tier size accounting and eviction counters; [None] when
          the disk tier is disabled *)
  gc : gc option;  (** GC delta of the run; [None] when not recorded *)
}

type t

val create : unit -> t
val record : t -> label:string -> wall_s:float -> unit
val set_jobs : t -> int -> unit

val set_backend : t -> string -> unit
(** Record which pool backend actually ran the grid (use
    {!Pool.backend_name} on {!Pool.backend} so a degraded [Remote]
    request reports ["domains"]). Defaults to ["domains"]. *)

val set_worker_restarts : t -> int -> unit
(** Record {!Pool.restarts} captured just before shutdown. *)

val set_wall : t -> float -> unit

val set_domain_busy : t -> float array -> unit
(** Record the per-domain busy times of the pool that ran the grid
    (usually {!Pool.busy_times} captured just before shutdown). *)

val set_gc : t -> gc -> unit

val gc_delta : (unit -> 'a) -> 'a * gc
(** Run the thunk and return its {!gc} delta alongside its result.
    Observation only: nothing read here may feed back into outputs. *)

val time : t -> label:string -> (unit -> 'a) -> 'a
(** Run the thunk, record its wall time under [label]. *)

val snapshot : t -> snapshot

val task_rows : snapshot -> string list list
(** One row per task: label, wall seconds, share of busy time. *)

val gc_rows : snapshot -> string list list
(** One row per GC counter (quantity, value); empty when no GC delta
    was recorded. *)

val cache_rows : snapshot -> string list list
(** One row per cache: name, hits, disk hits, misses, hit rate. *)

val to_json : snapshot -> string
(** Self-contained JSON object (no external dependency). *)
