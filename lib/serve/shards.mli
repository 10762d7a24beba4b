(** Ingest state: the streaming dedup table and the sliding {!Window}
    ring the daemon feeds and snapshots.

    {!observe} feeds a record through dedup and the window at once;
    nothing is buffered between snapshots, so the memory high-water
    mark is the flow state, not a re-tier interval of records.
    {!snapshot} advances the ring, retires stale dedup keys and returns
    the window's snapshot. *)

type t

val create : ?expected:int -> shards:int -> dedup:bool -> Window.params -> t
(** [dedup] enables streaming duplicate suppression. Raises
    [Invalid_argument] unless [shards = 1]: the label is kept only
    because [perfbench/inputs.ml] passes [~shards:1], and goes with the
    next change to the benchmark, as {!pending} does. *)

val window_params : t -> Window.params
val dedup_enabled : t -> bool

val observe : t -> Flowgen.Netflow.record -> unit
(** Run a record through dedup (when enabled) and, if kept, accumulate
    it into the window ring. Raises [Invalid_argument] on a record with
    a negative [first_s]. *)

val pending : t -> int
(** Records buffered and not yet applied: always [0], since
    {!observe} applies every record at once. Kept only because
    [perfbench/serve_ingest.ml] reports a pending high-water mark; it
    goes with the next change to the benchmark. *)

val snapshot : t -> bin:int -> retire_s:int -> Window.snapshot
(** Advance the ring to [bin], retire dedup keys older than
    [retire_s], and snapshot the window. *)

val flow_count : t -> int
(** Distinct flows observed. *)

val late : t -> int
val dropped_dup : t -> int option
(** [None] when dedup is disabled. *)
