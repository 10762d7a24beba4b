(** Keyed artifact cache: memoizes expensive intermediate artifacts
    (calibrated workloads, fitted markets, per-network flow arrays)
    under a structural key.

    A key is any marshal-able OCaml value — tuples of network name,
    alpha, p0, cost model, theta, seed, … — digested to a fixed-size
    identifier, so call sites never hand-build string keys.

    Two tiers:
    - an in-memory tier (domain-safe hash table) that returns the
      {e physically} same artifact on repeat lookups;
    - an optional on-disk tier — a {e content-addressed store} (see
      {!Cas}): each payload lives in an immutable object file named by
      the digest of its own bytes ([_cas/cas-<digest>.bin], written
      atomically via tmp + rename), and the key digest points at it
      through a tiny reference file, so identical artifacts written
      under any number of keys, by any number of processes or hosts,
      occupy one object. Payloads carry a per-cache schema version
      stamp: a payload written under a different schema is ignored and
      recomputed. Objects are digest-verified on read and corrupt ones
      self-repair (removed, reported as a miss). Fleet workers
      started with the parent's disk configuration
      ({!Transport.worker_config}) share the same directory.

    The disk tier is off by default and switched on globally with
    {!enable_disk} (the CLI's [--cache] flag). Corrupt or unreadable
    payloads are treated as misses, never as errors.

    The disk tier can additionally be bounded by a byte budget
    ([~max_bytes], the CLI's [--cache-max-bytes]): objects carry a
    strictly monotonic recency stamp (an integer in a [.stamp] sidecar
    backed by a per-directory counter file — {e not} mtime, which
    OCaml truncates to whole seconds and therefore cannot tell a
    same-second hit from the original write), refreshed on every write
    and every disk hit. When the tier overflows, the
    least-recently-used objects are evicted first — deterministically
    (stamp, then file name) and best-effort (losing a race with a
    reader only costs a recomputation; an object that cannot be
    removed is skipped without being counted as freed, so the tier
    still converges to the budget). References left dangling by an
    eviction read as misses and are pruned opportunistically. *)

type 'v t

type stats = {
  hits : int;  (** in-memory tier hits *)
  disk_hits : int;  (** disk tier hits (memory tier missed) *)
  remote_hits : int;
      (** Always [0]: there is no remote tier. Kept only because the
          repository benchmark ([perfbench/grid.ml]) reads it; it goes
          with the next benchmark change. *)
  misses : int;  (** every tier missed: the artifact was computed *)
}

type disk_stats = {
  dir : string;
  bytes : int;  (** total object bytes currently on disk *)
  max_bytes : int option;  (** configured budget, if any *)
  evictions : int;  (** objects evicted since {!enable_disk} *)
}

val create : ?schema:string -> name:string -> unit -> 'v t
(** A new cache holding artifacts of one type. [name] namespaces disk
    references and labels the cache in {!all_stats}; [schema] (default
    ["1"]) stamps payloads — bump it whenever the artifact's
    representation changes. Caches register themselves for
    {!all_stats} / {!clear_all}. *)

val find_or_add : 'v t -> key:'k -> (unit -> 'v) -> 'v
(** Memory tier, then disk tier (when enabled), then compute — and populate the tiers that missed. A
    missing key is claimed before computing: concurrent lookups of the
    same key block on the single in-flight computation instead of
    duplicating it, so every artifact is computed once and repeat
    lookups stay physically equal. Independent keys never wait on each
    other. If the computation raises, the claim is released (waiters
    retry) and the exception propagates. *)

val invalidate : 'v t -> key:'k -> unit
(** Drop one key: the in-memory entry and the disk {e reference} (the
    content object may be shared and is left to the LRU budget). The
    next lookup recomputes. *)

val clear : 'v t -> unit
(** Drop the whole in-memory tier (disk payloads are kept). *)

val stats : 'v t -> stats

val key_digest : 'k -> string
(** The structural digest (hex) used to identify keys. Exposed for
    logging/tests. *)

(** {2 Global registry} *)

val enable_disk : ?max_bytes:int -> dir:string -> unit -> unit
(** Enable the on-disk tier for every cache, storing objects under
    [dir] (created on demand). When [max_bytes] is given the tier
    never holds more than that many object bytes: every write that
    overflows the budget evicts least-recently-used objects (and the
    eviction counter resets). *)

val disable_disk : unit -> unit
val disk_dir : unit -> string option
val disk_max_bytes : unit -> int option

val disk_usage_bytes : unit -> int
(** Total bytes of object files currently in the disk tier ([0] when
    the tier is disabled). *)

val disk_stats : unit -> disk_stats option
(** Size accounting and eviction counters for the disk tier; [None]
    when disabled. *)

val all_stats : unit -> (string * stats) list
(** Per-cache counters, in cache-creation order. *)

val clear_all : unit -> unit
(** {!clear} every registered cache and reset its counters (used to
    re-run a grid cold, e.g. for serial-vs-parallel benchmarks). *)

(** {2 Test hooks} *)

module Private : sig
  val set_remove_hook : (string -> unit) option -> unit
  (** Replace [Sys.remove] for object {e eviction} only. The
      regression suite uses this to simulate an unremovable object
      (permission error, concurrent-reader race) portably — filesystem
      permissions are useless for this when the tests run as root.
      Pass [None] to restore the default. Not for production use. *)

  val payload_digest : 'v t -> 'v -> string
  (** The content digest the disk tier would store this artifact
      under (schema-stamped payload bytes hashed). For tests. *)
end
