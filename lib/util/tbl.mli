(** Deterministic hash-table traversal.

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in bucket order — a
    function of the hash seed and insertion history, not of the keys.
    Any traversal whose results feed reports, grids or cache
    accounting therefore risks leaking nondeterminism into rendered
    output, which would break the engine's byte-identical golden
    guarantee.  This module is the blessed path: every traversal is
    routed through a stable sort on the keys first, so the order seen
    by callers depends only on the table's contents.

    The repo's [tiered-lint] rule D002 flags every raw
    [Hashtbl.iter]/[Hashtbl.fold] in [lib/]; call these helpers (or
    carry an inline justified suppression) instead. *)

val sorted_bindings :
  ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings sorted by key ([Stdlib.compare] by default).  When a
    key has several bindings (shadowed via [Hashtbl.add]) they appear
    most-recently-added first, matching [Hashtbl.find_all]. *)

val fold_sorted :
  ?compare:('a -> 'a -> int) ->
  ('a -> 'b -> 'acc -> 'acc) ->
  ('a, 'b) Hashtbl.t ->
  'acc ->
  'acc
(** [fold_sorted f tbl init] folds over [sorted_bindings tbl] in
    ascending key order. *)

val iter_sorted :
  ?compare:('a -> 'a -> int) -> ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [iter_sorted f tbl] applies [f] to every binding in ascending key
    order. *)

val sorted_keys : ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> 'a list
(** Distinct keys in ascending order. *)

val hash_ints : int -> int -> int
(** A non-negative hash of two ints, for [Hashtbl.Make] keys built from
    ints: multiplications by odd constants spread each over the word,
    and a shift folds the high bits into the low ones the bucket index
    reads. No [caml_hash] call. *)
