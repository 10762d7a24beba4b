(* TCP fleet worker backend. See remote.mli for the contract.

   This module is only the socket transport: listeners, connects,
   loopback exec launching and child reaping. The frame protocol,
   auth and handshake, crash recovery, bounded retries, per-task
   timeouts and work stealing all live in {!Transport}.

   Two launch modes:
   - [Exec n]: the parent binds an ephemeral loopback listener and
     spawns [n] children of the current executable with
     [--engine-remote-worker=connect:127.0.0.1:<port>]; each child
     connects back and is handshaken over its socket. Crashed workers
     are respawned the same way. This is the same-host path (and what
     the CLI's [--backend procs] alias runs): process isolation over
     the full TCP stack.
   - [Addrs]: workers were started out-of-band ([tiered-cli worker
     --listen PORT], typically via ssh) and the parent connects out to
     each [host:port]. A crashed worker is replaced by one reconnect
     attempt to the same address (the listener loop serves connections
     sequentially, so a restarted daemon picks the slot back up). *)

exception Spawn_failure = Transport.Spawn_failure
exception Remote_failure = Transport.Remote_failure
exception Worker_lost = Transport.Worker_lost

let worker_flag_prefix = "--engine-remote-worker="

(* --- shared secret ---------------------------------------------------------- *)

(* Task frames execute arbitrary code in whoever accepts them (see the
   trust-model note in transport.ml), so TCP connections authenticate
   with a shared token. It travels in the environment, never on argv —
   argv is world-readable via ps. *)

let token_env = "TIERED_WORKER_TOKEN"
let bind_env = "TIERED_WORKER_BIND"

let env_token () =
  match Sys.getenv_opt token_env with Some t -> t | None -> ""

let gen_token () =
  let hex s =
    let b = Buffer.create (2 * String.length s) in
    String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents b
  in
  match open_in_bin "/dev/urandom" with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> hex (really_input_string ic 16))
  | exception Sys_error _ ->
      (* No urandom (exotic platform): loopback-only fleets still get a
         per-run token nobody off-host can observe. *)
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "tiered-%d-%.9f" (Unix.getpid ())
              (Unix.gettimeofday ())))

type spec = Exec of int | Addrs of (string * int) list

let parse_spec s =
  let exec_prefix = "exec:" in
  let has_prefix p s =
    String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p
  in
  if has_prefix exec_prefix s then
    let n = String.sub s (String.length exec_prefix) (String.length s - String.length exec_prefix) in
    match int_of_string_opt n with
    | Some n when n >= 1 -> Ok (Exec n)
    | Some _ | None -> Error "exec:N needs a positive worker count"
  else
    let parse_addr a =
      match String.rindex_opt a ':' with
      | None -> Error (Printf.sprintf "%S is not host:port" a)
      | Some i -> (
          let host = String.sub a 0 i in
          let port = String.sub a (i + 1) (String.length a - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 1 && p <= 65535 && String.length host > 0 ->
              Ok (host, p)
          | Some _ | None -> Error (Printf.sprintf "%S is not host:port" a))
    in
    let parts = String.split_on_char ',' s |> List.filter (fun p -> String.length p > 0) in
    if parts = [] then Error "empty worker list"
    else
      List.fold_left
        (fun acc part ->
          match (acc, parse_addr part) with
          | Error _, _ -> acc
          | Ok _, Error e -> Error e
          | Ok addrs, Ok a -> Ok (a :: addrs))
        (Ok []) parts
      |> Result.map (fun addrs -> Addrs (List.rev addrs))

let spec_workers = function Exec n -> max 1 n | Addrs l -> List.length l

(* --- sockets --------------------------------------------------------------- *)

let set_nodelay sock =
  (* Frames are small and request/response-shaped; Nagle would add
     40ms hiccups to every task round-trip. *)
  try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          raise (Spawn_failure (Printf.sprintf "cannot resolve %s" host))
      | h -> h.Unix.h_addr_list.(0))

let connect ~timeout_s host port =
  let addr = Unix.ADDR_INET (resolve host, port) in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  let fail msg =
    Transport.close_noerr sock;
    raise (Spawn_failure (Printf.sprintf "connect %s:%d: %s" host port msg))
  in
  Unix.set_nonblock sock;
  (match Unix.connect sock addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
      match
        Transport.restart_on_intr (fun () ->
            Unix.select [] [ sock ] [] timeout_s)
      with
      | _, [ _ ], _ -> (
          match Unix.getsockopt_error sock with
          | None -> ()
          | Some e -> fail (Unix.error_message e))
      | _ -> fail "timed out")
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e));
  Unix.clear_nonblock sock;
  set_nodelay sock;
  sock

(* --- worker side ----------------------------------------------------------- *)

let serve_connection ~token ~auth_deadline_s sock =
  match
    Transport.serve_worker ~in_fd:sock ~out_fd:sock ~token ~auth_deadline_s ()
  with
  | () -> ()
  | exception End_of_file -> ()

let is_loopback addr =
  let s = Unix.string_of_inet_addr addr in
  String.equal s "::1"
  || (String.length s >= 4 && String.equal (String.sub s 0 4) "127.")

let serve_forever ?(bind = "127.0.0.1") ?token ~port =
  let token = match token with Some t -> t | None -> env_token () in
  let bind_addr = resolve bind in
  (* Loopback needs no secret (the host boundary is the trust
     boundary, as for the exec-spawned fleet). Anything wider is
     remote code execution for whoever can reach the port, so it is
     double opt-in: an explicit bind address AND a shared token — and
     even then the port belongs on a trusted/firewalled network. *)
  if (not (is_loopback bind_addr)) && String.equal token "" then
    failwith
      (Printf.sprintf
         "refusing to listen on %s without a shared secret: task frames \
          execute arbitrary code in this daemon, so an exposed port is \
          remote code execution for anyone who can reach it. Pass \
          --token-file (or set %s) here and on the parent, and only run \
          workers on trusted networks"
         bind token_env);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Printexc.record_backtrace true;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (bind_addr, port));
  Unix.listen listener 8;
  Printf.eprintf "engine remote worker: listening on %s:%d\n%!"
    (Unix.string_of_inet_addr bind_addr)
    port;
  let rec loop () =
    let sock, peer =
      Transport.restart_on_intr (fun () -> Unix.accept listener)
    in
    let peer_name =
      match peer with
      | Unix.ADDR_INET (a, p) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      | Unix.ADDR_UNIX p -> p
    in
    Printf.eprintf "engine remote worker: serving %s\n%!" peer_name;
    set_nodelay sock;
    (* A real parent sends its auth preamble right after connecting.
       Connections are served one at a time, so a peer that connects
       and stays silent is dropped after 2 s, well inside a parent's
       10 s handshake budget; otherwise it would wedge every parent
       queued behind it. *)
    (match serve_connection ~token ~auth_deadline_s:2.0 sock with
    | () -> ()
    | exception Transport.Auth_failure ->
        Printf.eprintf
          "engine remote worker: rejected %s (bad, missing or late shared secret)\n%!"
          peer_name
    | exception exn ->
        Printf.eprintf "engine remote worker: connection to %s failed: %s\n%!"
          peer_name (Printexc.to_string exn));
    Transport.close_noerr sock;
    Printf.eprintf "engine remote worker: %s disconnected\n%!" peer_name;
    loop ()
  in
  loop ()

let run_directive directive =
  (* "connect:HOST:PORT" — dial the parent's listener and serve one
     connection. "listen:PORT" — run the standalone daemon. Both take
     the shared secret from the environment ([token_env]); the daemon
     additionally honours [bind_env] (default loopback). *)
  let strip prefix =
    let plen = String.length prefix in
    if
      String.length directive > plen
      && String.equal (String.sub directive 0 plen) prefix
    then Some (String.sub directive plen (String.length directive - plen))
    else None
  in
  match (strip "connect:", strip "listen:") with
  | Some rest, _ ->
      let host, port =
        match String.rindex_opt rest ':' with
        | None -> failwith (Printf.sprintf "bad worker directive %S" directive)
        | Some i -> (
            let host = String.sub rest 0 i in
            match
              int_of_string_opt
                (String.sub rest (i + 1) (String.length rest - i - 1))
            with
            | Some p -> (host, p)
            | None ->
                failwith (Printf.sprintf "bad worker directive %S" directive))
      in
      let sock = connect ~timeout_s:10.0 host port in
      Fun.protect
        ~finally:(fun () -> Transport.close_noerr sock)
        (fun () ->
          (* The parent writes the preamble as soon as it accepts us. *)
          serve_connection ~token:(env_token ()) ~auth_deadline_s:10.0 sock)
  | None, Some port -> (
      match int_of_string_opt port with
      | Some p when p >= 1 && p <= 65535 ->
          serve_forever
            ?bind:(Sys.getenv_opt bind_env)
            ~token:(env_token ()) ~port:p
      | Some _ | None ->
          failwith (Printf.sprintf "bad worker directive %S" directive))
  | None, None -> failwith (Printf.sprintf "bad worker directive %S" directive)

let maybe_run_worker () =
  let directive =
    Array.fold_left
      (fun acc arg ->
        match acc with
        | Some _ -> acc
        | None ->
            let plen = String.length worker_flag_prefix in
            if
              String.length arg > plen
              && String.equal (String.sub arg 0 plen) worker_flag_prefix
            then Some (String.sub arg plen (String.length arg - plen))
            else None)
      None Sys.argv
  in
  match directive with
  | None -> ()
  | Some directive -> (
      Printexc.record_backtrace true;
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      match run_directive directive with
      | () -> exit 0
      | exception exn ->
          Printf.eprintf "engine remote worker: fatal: %s\n%!"
            (Printexc.to_string exn);
          exit 125)

(* --- parent side ----------------------------------------------------------- *)

type t = {
  sched : Transport.sched;
  listener : Unix.file_descr option;
  mutable shut : bool;
}

let endpoint_of_socket ?pid ?(handshake_timeout_s = 10.0) ~token sock =
  try
    Transport.write_auth sock ~token;
    Transport.write_config sock;
    Transport.handshake ~deadline_s:handshake_timeout_s ~token sock;
    {
      Transport.ep_send = sock;
      ep_recv = sock;
      ep_kill =
        (fun () ->
          match pid with
          | Some p -> Transport.kill_noerr p
          | None -> Transport.close_noerr sock);
      ep_close =
        (fun () ->
          (* One fd both ways: close once. EOF makes the worker's read
             loop return; exec children additionally get reaped. *)
          Transport.close_noerr sock;
          match pid with
          | Some p -> Transport.reap_with_grace p
          | None -> ());
    }
  with exn ->
    (match pid with
    | Some p ->
        Transport.kill_noerr p;
        Transport.reap_noerr p
    | None -> ());
    Transport.close_noerr sock;
    raise (Spawn_failure (Printexc.to_string exn))

let spawn_exec_child ~port ~token =
  let exe = Sys.executable_name in
  let arg = Printf.sprintf "%sconnect:127.0.0.1:%d" worker_flag_prefix port in
  let env =
    (* Hand the child the fleet's secret via the environment (argv
       shows in ps), shadowing any inherited value. *)
    let prefix = token_env ^ "=" in
    let plen = String.length prefix in
    let keep =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not
               (String.length kv >= plen
               && String.equal (String.sub kv 0 plen) prefix))
    in
    Array.of_list (keep @ [ prefix ^ token ])
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  match
    (* stdout → stderr: init-time noise from the host executable must
       not land on the parent's stdout (the golden tables); the
       protocol channel is the socket, so the child's fd 1 carries
       nothing we need. *)
    Unix.create_process_env exe [| exe; arg |] env null Unix.stderr Unix.stderr
  with
  | exception exn ->
      Transport.close_noerr null;
      raise (Spawn_failure (Printexc.to_string exn))
  | pid ->
      Transport.close_noerr null;
      pid

let accept_worker listener ~timeout_s =
  match
    Transport.restart_on_intr (fun () -> Unix.select [ listener ] [] [] timeout_s)
  with
  | [], _, _ -> raise (Spawn_failure "remote worker did not connect in time")
  | _ ->
      let sock, _peer =
        Transport.restart_on_intr (fun () -> Unix.accept listener)
      in
      Unix.set_close_on_exec sock;
      set_nodelay sock;
      sock

let create ?(retries = 2) ?timeout_s ?token spec =
  (* A dead worker must surface as EPIPE/ECONNRESET on its socket, not
     kill the parent. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match spec with
  | Exec n ->
      (* Loopback children: a fresh random secret per fleet, handed
         down through the environment. Anything else on this host that
         races us to the ephemeral listener port is rejected at the
         preamble, and an impostor listener cannot produce our ready
         frame. *)
      let token = match token with Some t -> t | None -> gen_token () in
      let n = max 1 n in
      let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_close_on_exec listener;
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener (n + 8);
      let port =
        match Unix.getsockname listener with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let spawn_one () =
        let pid = spawn_exec_child ~port ~token in
        match accept_worker listener ~timeout_s:10.0 with
        | sock -> endpoint_of_socket ~pid ~token sock
        | exception exn ->
            Transport.kill_noerr pid;
            Transport.reap_noerr pid;
            raise exn
      in
      let endpoints = Array.make n None in
      (* The first worker must come up, otherwise the backend is
         unavailable and the caller degrades; later failures only
         shrink the fleet. *)
      (match spawn_one () with
      | ep -> endpoints.(0) <- Some ep
      | exception exn ->
          Transport.close_noerr listener;
          raise exn);
      for i = 1 to n - 1 do
        match spawn_one () with
        | ep -> endpoints.(i) <- Some ep
        | exception Spawn_failure _ -> ()
      done;
      let respawn _slot =
        match spawn_one () with
        | ep -> Some ep
        | exception Spawn_failure _ -> None
      in
      {
        sched = Transport.make_sched ~retries ?timeout_s ~respawn endpoints;
        listener = Some listener;
        shut = false;
      }
  | Addrs addr_list ->
      if addr_list = [] then raise (Spawn_failure "empty worker list");
      (* Out-of-band daemons: both ends read the secret from the
         environment by default (never argv). *)
      let token = match token with Some t -> t | None -> env_token () in
      let addrs = Array.of_list addr_list in
      let n = Array.length addrs in
      let spawn_at ?(connect_timeout_s = 5.0) ?handshake_timeout_s (host, port)
          =
        endpoint_of_socket ?handshake_timeout_s ~token
          (connect ~timeout_s:connect_timeout_s host port)
      in
      let endpoints = Array.make n None in
      endpoints.(0) <- Some (spawn_at addrs.(0));
      for i = 1 to n - 1 do
        match spawn_at addrs.(i) with
        | ep -> endpoints.(i) <- Some ep
        | exception Spawn_failure _ -> ()
      done;
      let respawn slot =
        (* Reconnect to the worker's own address: a [serve_forever]
           daemon accepts the next connection once its previous one
           died. The daemon serves one connection at a time and cannot
           abort a computation whose connection was severed (a
           --task-timeout kill only closes our end), so a reconnect
           right after a kill usually finds it still busy — fail fast
           on short timeouts and let the scheduler's deferred-respawn
           backoff retry while work remains, instead of blocking the
           dispatch loop for the full connect+handshake budget and
           abandoning the slot. *)
        match
          spawn_at ~connect_timeout_s:1.0 ~handshake_timeout_s:2.0 addrs.(slot)
        with
        | ep -> Some ep
        | exception Spawn_failure _ -> None
      in
      {
        sched = Transport.make_sched ~retries ?timeout_s ~respawn endpoints;
        listener = None;
        shut = false;
      }

let workers t = Transport.workers t.sched
let restarts t = Transport.restarts t.sched
let busy_times t = Transport.busy_times t.sched
let map t f tasks = Transport.map t.sched f tasks

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Transport.shutdown t.sched;
    match t.listener with
    | Some fd -> Transport.close_noerr fd
    | None -> ()
  end
