(** TCP fleet worker backend: the {!Transport} scheduler over socket
    endpoints, so a sweep can run on workers that live on {e other
    hosts} — or on loopback children for same-host smoke runs.

    Worker launch modes ({!spec}):
    - [Exec n] — the parent binds an ephemeral loopback listener and
      spawns [n] children of the current executable, each re-entered
      through the hidden [--engine-remote-worker=connect:…] argv
      directive; they dial back and are handshaken over their socket.
      Each task runs in a separate process, so a crashing or wedged
      worker costs one retry, not the run: this is what
      [--backend remote] without [--workers], its [--backend procs]
      alias and the CI smoke use.
    - [Addrs [(host, port); …]] — workers were started out-of-band
      with [tiered-cli worker --listen PORT] (typically via ssh) and
      the parent connects out to each address. A crashed worker is
      replaced by one reconnect attempt to the same address.

    Everything above the sockets — framing, auth and handshake, crash
    recovery with bounded retries, per-task timeouts, work stealing
    and local draining — is {!Transport}. Task
    semantics: at-least-once execution, exactly-once result merging
    in submission order, byte-identical rendered output.

    {b Trust model.} Task frames are marshalled closures: speaking the
    protocol {e is} arbitrary code execution in the worker. Every TCP
    connection therefore starts with a shared-secret preamble (see
    {!Transport.write_auth}): [Exec] fleets generate a fresh random
    token per fleet and pass it to their loopback children through the
    environment; standalone daemons and their parents share a token
    via [TIERED_WORKER_TOKEN] (or [tiered-cli worker --token-file]).
    Daemons bind loopback by default and refuse a non-loopback bind
    without a token — but the token only authenticates, it does not
    encrypt: run workers on trusted/firewalled networks only.

    Every entry point that may drive a remote pool must call
    {!maybe_run_worker} first in [main]. *)

type t

exception Spawn_failure of string
exception Remote_failure of { message : string }
exception Worker_lost of { attempts : int; reason : string }
(** Aliases of {!Transport}'s exceptions: matching on either module's
    constructors works. *)

type spec = Exec of int | Addrs of (string * int) list

val parse_spec : string -> (spec, string) result
(** ["exec:N"] or ["host:port,host:port,…"] (the [--workers] argument
    syntax). *)

val spec_workers : spec -> int
(** Fleet size the spec asks for. *)

val worker_flag_prefix : string
(** ["--engine-remote-worker="] — the hidden argv prefix that turns
    the current executable into a connecting fleet worker. *)

val token_env : string
(** ["TIERED_WORKER_TOKEN"] — environment variable carrying the shared
    secret on both ends (tokens never travel on argv: ps shows argv). *)

val bind_env : string
(** ["TIERED_WORKER_BIND"] — environment variable overriding the
    listen address of a daemon started through the argv directive. *)

val maybe_run_worker : unit -> unit
(** If [Sys.argv] carries a [--engine-remote-worker=connect:HOST:PORT]
    directive, become a fleet worker: dial the parent, serve task
    frames until the connection closes, then [exit 0]. A
    [--engine-remote-worker=listen:PORT] directive runs
    {!serve_forever} instead, so any host executable can be started as
    a standalone daemon. Both read the shared secret from
    {!token_env}; the daemon additionally honours {!bind_env}. Never
    returns in either case. *)

val serve_forever : ?bind:string -> ?token:string -> port:int -> 'a
(** Run a standalone worker daemon: listen on [bind] (default
    ["127.0.0.1"]; pass an interface address or ["0.0.0.0"] to opt in
    to external connections) and serve one parent connection at a
    time, forever — each connection must present [token] (default: the
    {!token_env} variable) within a few seconds, before anything is
    unmarshalled, or it is dropped so a silent peer cannot hold the
    daemon; each
    re-applies the parent's disk-cache configuration, and in-memory
    artifact caches stay warm across connections (the schema stamp
    guards staleness). Raises [Failure] when [bind] is not loopback
    and no token is configured — an open port accepts closures, i.e.
    arbitrary code, so external exposure is double opt-in and still
    belongs behind a firewall. A severed connection does {e not} abort
    a computation already running here: the daemon finishes it, hits
    EPIPE, then accepts the next parent. This is
    [tiered-cli worker --listen]. Progress notes go to stderr. *)

val create : ?retries:int -> ?timeout_s:float -> ?token:string -> spec -> t
(** Bring the fleet up (spawn-and-accept for [Exec], connect for
    [Addrs]) and handshake every worker. [retries] (default [2])
    bounds how many crashed executions a task absorbs; [timeout_s]
    kills a worker stuck on one task — note that for [Addrs] daemons
    the kill can only sever the connection, not abort the remote
    computation: the slot drops out, is retried with backoff, and
    rejoins once the daemon comes back (finishes or restarts).
    [token] defaults to a fresh random secret for [Exec] and to the
    {!token_env} variable for [Addrs]. Raises {!Spawn_failure} when
    not even one worker comes up; later failures merely shrink the
    fleet. Side effect: [SIGPIPE] is ignored process-wide. *)

val workers : t -> int
val restarts : t -> int
val busy_times : t -> float array

val map : t -> ('a -> 'b) -> 'a array -> ('b, exn * string) result array
(** Same contract as {!Transport.map}. *)

val shutdown : t -> unit
(** Close every worker connection (loopback children are reaped) and
    the listener. Idempotent. *)
