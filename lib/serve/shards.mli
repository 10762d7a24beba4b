(** Sharded ingest: per-prefix partitions of the dedup + window state,
    merged into one deterministic snapshot for the single re-tier
    thread.

    Records are routed by a stable hash of both endpoints' /24
    prefixes, so a flow — and every router duplicate of it, which
    shares the 5-tuple — lives on exactly one shard for the life of
    the stream. Each shard runs its own {!Flowgen.Dedup.Stream} and
    {!Window} ring and sees precisely the records it would in a
    1-shard run, in the same order. {!observe} feeds a record through
    its shard's dedup and window at once; nothing is buffered between
    snapshots, so the memory high-water mark is the flow state, not a
    re-tier interval of records. {!snapshot} advances every ring,
    retires stale dedup keys and snapshots each shard (in parallel on
    an {!Engine.Pool} of the Domains backend), then merges
    shard-major, slot order within each shard, injecting local uids
    into the dense global space [uid * shards + shard]. Per-flow rates
    are bitwise those of the 1-shard run and the re-tier layer sorts
    flows by (cost, id), so posted tiers are bitwise-identical at any
    shard count — the bench pins this with a golden leg. *)

type t

val create : ?expected:int -> shards:int -> dedup:bool -> Window.params -> t
(** [shards >= 1] partitions ([1] degenerates to the unsharded
    pipeline, byte for byte). [dedup] enables per-shard streaming
    duplicate suppression. Raises [Invalid_argument] when
    [shards < 1]. *)

val shards : t -> int
val window_params : t -> Window.params
val dedup_enabled : t -> bool

val shard_of : t -> Flowgen.Netflow.record -> int
(** The partition a record routes to — pure in the endpoint prefixes. *)

val observe : t -> Flowgen.Netflow.record -> unit
(** Run a record through its shard's dedup (when enabled) and, if
    kept, accumulate it into the shard's window ring. Raises
    [Invalid_argument] on a record with a negative [first_s]. *)

val pending : t -> int
(** Records buffered and not yet applied: always [0], since
    {!observe} applies every record at once. Kept for callers that
    report a pending high-water mark. *)

val snapshot :
  ?pool:Engine.Pool.t -> t -> bin:int -> retire_s:int -> Window.snapshot
(** Advance all rings to [bin], retire dedup keys older than
    [retire_s], and merge the per-shard snapshots deterministically.
    With [pool] (Domains backend; a Procs or Remote pool silently
    falls back to serial — worker processes cannot mutate this
    process's shard state) the per-shard ring snapshots run in
    parallel; the merge is submission-ordered, so the result is
    identical either way. *)

val flow_count : t -> int
(** Distinct flows across all shards. *)

val late : t -> int
val dropped_dup : t -> int option
(** [None] when dedup is disabled. *)
