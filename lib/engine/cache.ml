type stats = { hits : int; disk_hits : int; remote_hits : int; misses : int }

type disk_stats = {
  dir : string;
  bytes : int;
  max_bytes : int option;
  evictions : int;
}

type 'v slot =
  | Ready of 'v
  | In_flight
      (* Another domain is computing this key; wait on [filled] instead
         of duplicating the work. *)

type 'v t = {
  name : string;
  schema : string;
  mutex : Mutex.t;
  filled : Condition.t;
  table : (string, 'v slot) Hashtbl.t;  (* key digest -> artifact *)
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
}

(* --- global registry and disk configuration ----------------------------- *)

let registry_mutex = Mutex.create ()
let registry : (string * (unit -> stats) * (unit -> unit)) list ref = ref []
let disk : string option ref = ref None
let disk_max : int option ref = ref None
let disk_evictions = ref 0

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let enable_disk ?max_bytes ~dir () =
  with_lock registry_mutex (fun () ->
      disk := Some dir;
      disk_max := max_bytes;
      disk_evictions := 0)

let disable_disk () =
  with_lock registry_mutex (fun () ->
      disk := None;
      disk_max := None)

let disk_dir () = with_lock registry_mutex (fun () -> !disk)
let disk_max_bytes () = with_lock registry_mutex (fun () -> !disk_max)

let register name stats clear =
  with_lock registry_mutex (fun () ->
      registry := (name, stats, clear) :: !registry)

let all_stats () =
  let entries = with_lock registry_mutex (fun () -> !registry) in
  List.rev_map (fun (name, stats, _) -> (name, stats ())) entries

let clear_all () =
  let entries = with_lock registry_mutex (fun () -> !registry) in
  List.iter (fun (_, _, clear) -> clear ()) entries

(* --- keys ---------------------------------------------------------------- *)

let key_digest key = Digest.to_hex (Digest.string (Marshal.to_string key []))

(* --- creation ------------------------------------------------------------ *)

let stats t =
  with_lock t.mutex (fun () ->
      {
        hits = t.hits;
        disk_hits = t.disk_hits;
        remote_hits = 0;
        misses = t.misses;
      })

let clear t =
  with_lock t.mutex (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.disk_hits <- 0;
      t.misses <- 0)

let create ?(schema = "1") ~name () =
  let t =
    {
      name;
      schema;
      mutex = Mutex.create ();
      filled = Condition.create ();
      table = Hashtbl.create 16;
      hits = 0;
      disk_hits = 0;
      misses = 0;
    }
  in
  register name (fun () -> stats t) (fun () -> clear t);
  t

(* --- disk tier ----------------------------------------------------------- *)

(* The disk tier is content-addressed (see {!Cas}): a payload — the
   marshalled pair (schema stamp, artifact) — lives in an object file
   named by its own digest, and the cache's key digest points at it
   through a tiny reference file. Identical artifacts written under
   different keys (or by different caches, processes or hosts) share
   one object. Reading anything unexpected — missing ref or object,
   digest mismatch, truncated payload, foreign schema — is a miss,
   never an error. *)

let payload_of t v =
  match Marshal.to_string (t.schema, v) [] with
  | payload -> Some payload
  | exception _ -> None

let of_payload t payload =
  match (Marshal.from_string payload 0 : string * 'v) with
  | stamp, v when String.equal stamp t.schema -> Some v
  | _ -> None
  | exception _ -> None

(* --- size accounting and LRU eviction ------------------------------------ *)

(* The disk tier is bounded by an optional byte budget. Every object
   file carries a recency stamp — a strictly increasing integer kept
   in a [.stamp] sidecar next to the object, allocated from a
   [lru.next] counter file in the cache directory. mtime is useless
   here: OCaml's [Unix.stat] truncates [st_mtime] to whole seconds, so
   a hit in the same second as the write never looked more recent and
   a hot object could be evicted as "oldest". The counter survives
   the process (it lives on disk) and is additionally floored by an
   in-process counter, so stamps are strictly monotonic within a
   process and monotone-enough across concurrent processes (a lost
   race costs at most one eviction-order tie, broken by file name).
   When the tier grows past [max_bytes] the least-recently-used
   objects are removed first. Eviction is best-effort and crash-safe:
   losing a file to a concurrent reader, a permission error or a crash
   mid-eviction only ever costs a recomputation, never raises — and an
   object that cannot be removed is skipped without being counted as
   freed, so the loop keeps evicting until the budget truly holds.
   Ties on the stamp break by file name so the eviction order is
   deterministic. References are not budgeted (they are ~32 bytes);
   references left dangling by an eviction are pruned afterwards and
   read as misses until then. *)

let eviction_mutex = Mutex.create ()
let stamp_mutex = Mutex.create ()
let last_stamp = ref 0

let stamp_path path = path ^ ".stamp"
let counter_path dir = Filename.concat dir "lru.next"

let read_int_file path =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match int_of_string_opt (String.trim (input_line ic)) with
          | Some n -> n
          | None | (exception End_of_file) -> 0)

let write_int_file path n =
  match open_out path with
  | exception Sys_error _ -> ()
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (string_of_int n))

let next_stamp dir =
  with_lock stamp_mutex (fun () ->
      let n = 1 + max (read_int_file (counter_path dir)) !last_stamp in
      last_stamp := n;
      write_int_file (counter_path dir) n;
      n)

(* Refresh an object's recency: write a fresh stamp into its sidecar.
   Called on every write and every disk hit. *)
let touch ~dir path = write_int_file (stamp_path path) (next_stamp dir)

let is_payload = Cas.is_object

let scan_payloads dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if not (is_payload name) then None
             else
               let path = Filename.concat dir name in
               match Unix.stat path with
               | exception Unix.Unix_error _ -> None
               | st when st.Unix.st_kind = Unix.S_REG ->
                   (* An object without a sidecar (crash between rename
                      and stamp) reads as stamp 0: oldest, evicted
                      first — deterministically. *)
                   Some (path, st.Unix.st_size, read_int_file (stamp_path path))
               | _ -> None)

let disk_usage_bytes () =
  match disk_dir () with
  | None -> 0
  | Some dir -> List.fold_left (fun acc (_, size, _) -> acc + size) 0 (scan_payloads dir)

(* Test hook: lets the regression suite make one object unremovable
   (simulating a permission error / concurrent-reader race) without
   depending on filesystem permissions, which root bypasses. *)
let remove_hook : (string -> unit) option ref = ref None

let remove_payload path =
  match !remove_hook with Some f -> f path | None -> Sys.remove path

let enforce_budget () =
  match (disk_dir (), disk_max_bytes ()) with
  | Some dir, Some max_bytes ->
      with_lock eviction_mutex (fun () ->
          let entries = scan_payloads dir in
          let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries in
          if total > max_bytes then begin
            (* Oldest stamp first; the just-written object is evicted
               too when it alone overflows the budget. *)
            let by_age =
              List.sort
                (fun (pa, _, ma) (pb, _, mb) ->
                  match Int.compare ma mb with 0 -> String.compare pa pb | c -> c)
                entries
            in
            let evicted = ref 0 in
            ignore
              (List.fold_left
                 (fun remaining (path, size, _) ->
                   if remaining <= max_bytes then remaining
                   else
                     (* Only bytes actually freed count against the
                        overflow: a failed removal must not stop the
                        loop early and leave the tier over budget. *)
                     match remove_payload path with
                     | () ->
                         incr evicted;
                         (try Sys.remove (stamp_path path)
                          with Sys_error _ -> ());
                         remaining - size
                     | exception Sys_error _ -> remaining)
                 total by_age);
            if !evicted > 0 then begin
              with_lock registry_mutex (fun () ->
                  disk_evictions := !disk_evictions + !evicted);
              Cas.prune_refs ~dir
            end
          end)
  | _ -> ()

let disk_stats () =
  match disk_dir () with
  | None -> None
  | Some dir ->
      Some
        {
          dir;
          bytes = disk_usage_bytes ();
          max_bytes = disk_max_bytes ();
          evictions = with_lock registry_mutex (fun () -> !disk_evictions);
        }

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

(* Store the artifact's payload as an object and point the key at
   it. Best-effort: a failed write only costs a later recomputation. *)
let disk_write t digest payload =
  match disk_dir () with
  | None -> ()
  | Some dir -> (
      ensure_dir dir;
      match Cas.write_object ~dir ~payload with
      | None -> ()
      | Some od ->
          Cas.write_ref ~dir ~cache:t.name ~key_digest:digest ~digest:od;
          touch ~dir (Cas.object_path ~dir od);
          enforce_budget ())

(* The artifact under a key, if the reference, a digest-verified object
   and a payload of this cache's schema all exist. *)
let disk_read t digest =
  match disk_dir () with
  | None -> None
  | Some dir -> (
      match Cas.read_ref ~dir ~cache:t.name ~key_digest:digest with
      | None -> None
      | Some od -> (
          match Cas.read_object ~dir od with
          | None -> None
          | Some payload ->
              (* Refresh the LRU stamp: a hit makes the object recent. *)
              touch ~dir (Cas.object_path ~dir od);
              of_payload t payload))

let disk_remove t digest =
  (* Only the reference goes: the object may be shared with other keys
     and is reclaimed by the LRU budget. A recomputation of the same
     artifact re-links the same object. *)
  match disk_dir () with
  | None -> ()
  | Some dir -> Cas.remove_ref ~dir ~cache:t.name ~key_digest:digest

(* --- lookup -------------------------------------------------------------- *)

let find_or_add t ~key compute =
  let digest = key_digest key in
  Mutex.lock t.mutex;
  let rec claim () =
    match Hashtbl.find_opt t.table digest with
    | Some (Ready v) ->
        t.hits <- t.hits + 1;
        `Hit v
    | Some In_flight ->
        (* Another domain is already computing this artifact: wait for
           it rather than duplicating the work. *)
        Condition.wait t.filled t.mutex;
        claim ()
    | None ->
        Hashtbl.replace t.table digest In_flight;
        `Ours
  in
  match claim () with
  | `Hit v ->
      Mutex.unlock t.mutex;
      v
  | `Ours -> (
      (* Load or compute outside the lock so independent keys can miss
         concurrently; only same-key lookups wait. *)
      Mutex.unlock t.mutex;
      let outcome =
        match disk_read t digest with
        | Some v -> Ok (v, `Disk)
        | None -> (
            match compute () with
            | v -> Ok ((v : _), `Fresh)
            | exception exn ->
                let bt = Printexc.get_raw_backtrace () in
                Error (exn, bt))
      in
      Mutex.lock t.mutex;
      (match outcome with
      | Ok (v, src) ->
          Hashtbl.replace t.table digest (Ready v);
          (match src with
          | `Disk -> t.disk_hits <- t.disk_hits + 1
          | `Fresh -> t.misses <- t.misses + 1)
      | Error _ ->
          (* Release the claim so waiters retry (and re-raise in their
             own context if the computation is deterministic). *)
          Hashtbl.remove t.table digest);
      Condition.broadcast t.filled;
      Mutex.unlock t.mutex;
      match outcome with
      | Ok (v, `Fresh) ->
          (* Marshal only when the disk tier will take the bytes: with
             it off the payload would be built and dropped. *)
          if Option.is_some (disk_dir ()) then
            Option.iter (disk_write t digest) (payload_of t v);
          v
      | Ok (v, `Disk) -> v
      | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt)

module Private = struct
  let set_remove_hook h = with_lock eviction_mutex (fun () -> remove_hook := h)

  let payload_digest t v =
    match payload_of t v with
    | Some payload -> Cas.digest_hex payload
    | None -> invalid_arg "Cache.Private.payload_digest: unmarshalable artifact"
end

let invalidate t ~key =
  let digest = key_digest key in
  with_lock t.mutex (fun () ->
      match Hashtbl.find_opt t.table digest with
      | Some (Ready _) | None -> Hashtbl.remove t.table digest
      | Some In_flight ->
          (* The computing domain will insert its fresh result; nothing
             stale to drop. *)
          ());
  disk_remove t digest
