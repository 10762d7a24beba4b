(* Engine.Remote: the TCP fleet backend, exercised end-to-end over
   loopback workers (this test binary re-invokes itself through
   --engine-remote-worker=connect:…; Test_main calls
   Remote.maybe_run_worker first): byte-identity, crash recovery,
   retries, task failures and timeouts, the shared disk CAS and the
   standalone daemon. *)

open Tiered

(* The remote tests require the fleet to actually come up. A degraded
   pool would make the self-kill tasks below kill the test process, so
   assert loudly instead. *)
let require_remote pool =
  if Engine.Pool.backend pool <> Engine.Pool.Remote then
    Alcotest.fail
      "remote backend unavailable (loopback spawn failed); cannot run this test"

(* (a) Byte-identity across substrates: the same grid rendered through
   a 2-worker loopback fleet equals the serial rendering exactly. *)
let test_remote_backend_identical () =
  let grid = List.map Experiment.find [ "table1"; "fig8" ] in
  let serial = Runner.render (Runner.run_experiments ~jobs:1 grid) in
  let remote =
    Runner.render
      (Runner.run_experiments ~backend:Engine.Pool.Remote ~jobs:2 grid)
  in
  Alcotest.(check string) "remote rendering byte-identical" serial remote

(* (b) Fault injection: SIGKILL a fleet worker mid-map. The in-flight
   task is retried on a surviving/replacement worker, results are
   byte-identical to an undisturbed run, and the restart is counted. *)
let test_remote_worker_kill_recovers () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Remote ~jobs:2 ~retries:2
    (fun pool ->
      require_remote pool;
      let sentinel = Filename.temp_file "engine-remote-kill" ".sentinel" in
      Sys.remove sentinel;
      Fun.protect ~finally:(fun () ->
          try Sys.remove sentinel with Sys_error _ -> ())
      @@ fun () ->
      let f i =
        if i = 3 && not (Sys.file_exists sentinel) then begin
          let oc = open_out sentinel in
          close_out oc;
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        i * 2
      in
      let out = Engine.Pool.map pool f (Array.init 8 (fun i -> i)) in
      Alcotest.(check (array int))
        "results identical despite the crash"
        (Array.init 8 (fun i -> i * 2))
        out;
      Alcotest.(check bool)
        (Printf.sprintf "restart recorded (%d)" (Engine.Pool.restarts pool))
        true
        (Engine.Pool.restarts pool >= 1);
      let again = Engine.Pool.map pool (fun i -> i + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "fleet alive after crash" [| 2; 3; 4 |] again)

(* (c) Retry exhaustion is deterministic: attempts = retries + 1, the
   lowest failing index surfaces, the map neither hangs nor poisons
   the other tasks. *)
let test_remote_retry_exhaustion () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Remote ~jobs:2 ~retries:1
    (fun pool ->
      require_remote pool;
      let f i =
        if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i + 10
      in
      match Engine.Pool.map pool f [| 0; 1; 2; 3 |] with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Engine.Pool.Task_failed { index; exn; _ } -> (
          Alcotest.(check int) "deterministic failing index" 1 index;
          match exn with
          | Engine.Remote.Worker_lost { attempts; reason } ->
              Alcotest.(check int) "retries=1 means two attempts" 2 attempts;
              (* The printer names the index, the attempts and the
                 worker-loss reason. *)
              let printed =
                Printexc.to_string
                  (Engine.Pool.Task_failed { index; exn; backtrace = "" })
              in
              List.iter
                (fun sub ->
                  if not (Fixtures.contains printed sub) then
                    Alcotest.failf "%S does not name %S" printed sub)
                [ "task 1"; "2 attempt"; reason ]
          | other ->
              Alcotest.failf "expected Worker_lost, got %s"
                (Printexc.to_string other)))

(* (d) A task exception inside a fleet worker is a failure report, not
   a crash: no retry, surfaced as Remote_failure with the printed
   exception. *)
let test_remote_task_failure () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Remote ~jobs:2 ~retries:2
    (fun pool ->
      require_remote pool;
      match
        Engine.Pool.map pool
          (fun i -> if i = 2 then failwith "remote boom" else i)
          [| 0; 1; 2; 3 |]
      with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Engine.Pool.Task_failed { index; exn; _ } -> (
          Alcotest.(check int) "failing index" 2 index;
          Alcotest.(check int) "a raising task is not a worker loss" 0
            (Engine.Pool.restarts pool);
          match exn with
          | Engine.Remote.Remote_failure { message } ->
              Alcotest.(check string) "printed exception carried over"
                (Printexc.to_string (Failure "remote boom"))
                message
          | other ->
              Alcotest.failf "expected Remote_failure, got %s"
                (Printexc.to_string other)))

(* (d') Per-task timeout: a wedged worker is killed and replaced, and
   the task retried; the map completes instead of hanging. *)
let test_remote_timeout_replaces_wedged_worker () =
  Engine.Pool.with_pool ~backend:Engine.Pool.Remote ~jobs:1 ~retries:2
    ~timeout_s:0.5 (fun pool ->
      require_remote pool;
      let sentinel = Filename.temp_file "engine-wedge" ".sentinel" in
      Sys.remove sentinel;
      Fun.protect ~finally:(fun () ->
          try Sys.remove sentinel with Sys_error _ -> ())
      @@ fun () ->
      let f i =
        if i = 0 && not (Sys.file_exists sentinel) then begin
          let oc = open_out sentinel in
          close_out oc;
          (* Wedge far beyond the timeout; only SIGKILL gets us out. *)
          Unix.sleep 30
        end;
        i + 100
      in
      let t0 = Unix.gettimeofday () in
      let out = Engine.Pool.map pool f [| 0; 1 |] in
      let wall = Unix.gettimeofday () -. t0 in
      Alcotest.(check (array int)) "wedged task retried" [| 100; 101 |] out;
      Alcotest.(check bool)
        (Printf.sprintf "timeout enforced, no 30s hang (%.2fs)" wall)
        true (wall < 10.);
      Alcotest.(check bool) "wedged worker replaced" true
        (Engine.Pool.restarts pool >= 1))

(* (e) Fleet workers get the parent's disk configuration in their
   config frame, so with --cache an artifact a worker computes lands in
   the parent's _cas/ directory and the parent later reads it as a
   disk hit instead of recomputing it. *)
let test_remote_workers_share_disk_cas () =
  let dir = Filename.temp_file "engine-remote-cas" "" in
  Sys.remove dir;
  Engine.Cache.enable_disk ~dir ();
  Fun.protect ~finally:Engine.Cache.disable_disk @@ fun () ->
  let fleet = Engine.Remote.create (Engine.Remote.Exec 1) in
  let out =
    Fun.protect ~finally:(fun () -> Engine.Remote.shutdown fleet) @@ fun () ->
    Engine.Remote.map fleet
      (fun () ->
        let c = Engine.Cache.create ~name:"test-remote-disk" ~schema:"v1" () in
        Engine.Cache.find_or_add c ~key:("shared", 1) (fun () -> "made-remotely"))
      [| () |]
  in
  (match out.(0) with
  | Ok v -> Alcotest.(check string) "task result" "made-remotely" v
  | Error (exn, _) ->
      Alcotest.failf "task failed: %s" (Printexc.to_string exn));
  let c = Engine.Cache.create ~name:"test-remote-disk" ~schema:"v1" () in
  let v =
    Engine.Cache.find_or_add c ~key:("shared", 1) (fun () ->
        failwith "compute ran: the worker's artifact is not in the disk CAS")
  in
  Alcotest.(check string) "parent reads the worker's artifact" "made-remotely" v;
  Alcotest.(check int) "served as a disk hit" 1
    (Engine.Cache.stats c).Engine.Cache.disk_hits

(* (g) Spec parsing: the --workers syntax. *)
let test_parse_spec () =
  (match Engine.Remote.parse_spec "exec:3" with
  | Ok (Engine.Remote.Exec 3) -> ()
  | Ok _ -> Alcotest.fail "exec:3 parsed to the wrong spec"
  | Error msg -> Alcotest.failf "exec:3 rejected: %s" msg);
  (match Engine.Remote.parse_spec "10.0.0.1:7000,host-b:7001" with
  | Ok (Engine.Remote.Addrs [ ("10.0.0.1", 7000); ("host-b", 7001) ]) -> ()
  | Ok _ -> Alcotest.fail "address list parsed to the wrong spec"
  | Error msg -> Alcotest.failf "address list rejected: %s" msg);
  List.iter
    (fun bad ->
      match Engine.Remote.parse_spec bad with
      | Ok _ -> Alcotest.failf "%S parsed but should not" bad
      | Error _ -> ())
    [ ""; "exec:0"; "exec:x"; "nohost"; "host:"; "host:0"; "host:notaport" ]

(* A standalone daemon child of this binary on a free loopback port,
   killed once [f port] returns. [env] replaces the inherited
   environment (to hand the daemon a token). *)
let with_daemon ?env f =
  let exe = Sys.executable_name in
  let port =
    (* Pick a free port by binding an ephemeral listener, reading the
       port back, and closing it — a race in principle, but the daemon
       child rebinds it immediately. *)
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p =
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    Unix.close s;
    p
  in
  let argv = [| exe; "--engine-remote-worker=listen:" ^ string_of_int port |] in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    match env with
    | None -> Unix.create_process exe argv null Unix.stderr Unix.stderr
    | Some env -> Unix.create_process_env exe argv env null Unix.stderr Unix.stderr
  in
  Unix.close null;
  let finally () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
  in
  Fun.protect ~finally (fun () -> f port)

(* Connect a fleet to a daemon child, which needs a moment to bind. *)
let create_with_patience ?token port =
  let addrs = Engine.Remote.Addrs [ ("127.0.0.1", port) ] in
  let rec go tries =
    match Engine.Remote.create ?token addrs with
    | fleet -> fleet
    | exception Engine.Remote.Spawn_failure _ when tries > 0 ->
        Unix.sleepf 0.1;
        go (tries - 1)
  in
  go 50

(* (h) The standalone daemon path: a worker started with serve_forever
   semantics (here: a listener the fleet connects out to) serves a
   map, survives the parent disconnecting, and serves a second parent
   — in-memory caches staying warm across connections. *)
let test_remote_daemon_reconnect () =
  with_daemon @@ fun port ->
  let fleet = create_with_patience port in
  let out = Engine.Remote.map fleet (fun i -> i * 3) [| 1; 2; 3 |] in
  Alcotest.(check bool) "first connection maps" true
    (Array.for_all Result.is_ok out);
  Engine.Remote.shutdown fleet;
  (* Second parent: the daemon must accept a fresh connection. *)
  let fleet2 = create_with_patience port in
  let out2 = Engine.Remote.map fleet2 (fun i -> i + 1) [| 10 |] in
  (match out2.(0) with
  | Ok v -> Alcotest.(check int) "second connection maps" 11 v
  | Error (exn, _) ->
      Alcotest.failf "second connection failed: %s" (Printexc.to_string exn));
  Engine.Remote.shutdown fleet2

(* (i) Shared-secret enforcement on the daemon path: a daemon holding
   a token serves a parent presenting the same token and rejects one
   presenting another — the rejection happens at the preamble, before
   any closure-carrying frame could be unmarshalled. *)
let test_remote_daemon_token_auth () =
  let env =
    let prefix = Engine.Remote.token_env ^ "=" in
    let plen = String.length prefix in
    let keep =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not
               (String.length kv >= plen
               && String.equal (String.sub kv 0 plen) prefix))
    in
    Array.of_list (keep @ [ prefix ^ "s3cret" ])
  in
  with_daemon ~env @@ fun port ->
  let addrs = Engine.Remote.Addrs [ ("127.0.0.1", port) ] in
  (* Correct token (with patience for the daemon to bind). *)
  let fleet = create_with_patience ~token:"s3cret" port in
  let out = Engine.Remote.map fleet (fun i -> i * 7) [| 6 |] in
  (match out.(0) with
  | Ok v -> Alcotest.(check int) "authenticated parent maps" 42 v
  | Error (exn, _) ->
      Alcotest.failf "authenticated map failed: %s" (Printexc.to_string exn));
  Engine.Remote.shutdown fleet;
  (* Wrong token: the daemon is demonstrably up (we just used it), so
     Spawn_failure here can only be the auth rejection. *)
  (match Engine.Remote.create ~token:"wrong" addrs with
  | fleet ->
      Engine.Remote.shutdown fleet;
      Alcotest.fail "daemon accepted a parent with the wrong token"
  | exception Engine.Remote.Spawn_failure _ -> ());
  (* And no token at all is equally rejected. *)
  match Engine.Remote.create ~token:"" addrs with
  | fleet ->
      Engine.Remote.shutdown fleet;
      Alcotest.fail "daemon accepted a parent with no token"
  | exception Engine.Remote.Spawn_failure _ -> ()

(* (i') A silent peer cannot wedge the daemon, which serves one
   connection at a time: a connection that never sends its auth
   preamble is dropped at the daemon's auth deadline, and the parent
   queued behind it is served within its own handshake budget. *)
let test_remote_daemon_drops_idle_connection () =
  with_daemon @@ fun port ->
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec connect_idle tries =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect sock addr with
    | () -> sock
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
        Unix.close sock;
        Unix.sleepf 0.1;
        connect_idle (tries - 1)
  in
  let idle = connect_idle 50 in
  Fun.protect ~finally:(fun () -> Unix.close idle) @@ fun () ->
  let fleet =
    match Engine.Remote.create (Engine.Remote.Addrs [ ("127.0.0.1", port) ]) with
    | fleet -> fleet
    | exception Engine.Remote.Spawn_failure msg ->
        Alcotest.failf "the idle connection wedged the daemon: %s" msg
  in
  Fun.protect ~finally:(fun () -> Engine.Remote.shutdown fleet) @@ fun () ->
  let out = Engine.Remote.map fleet (fun i -> i * 5) [| 4 |] in
  match out.(0) with
  | Ok v -> Alcotest.(check int) "parent behind the idle peer maps" 20 v
  | Error (exn, _) ->
      Alcotest.failf "map failed: %s" (Printexc.to_string exn)

(* (j) Binding beyond loopback without a shared secret is refused
   outright — an open port accepts closures, i.e. arbitrary code. *)
let test_serve_forever_refuses_open_bind_without_token () =
  match Engine.Remote.serve_forever ~bind:"0.0.0.0" ~token:"" ~port:1 with
  | _ -> Alcotest.fail "serve_forever bound 0.0.0.0 without a token"
  | exception Failure _ -> ()

let suite =
  [
    Alcotest.test_case "remote backend renders byte-identically" `Slow
      test_remote_backend_identical;
    Alcotest.test_case "remote backend recovers from a killed worker" `Quick
      test_remote_worker_kill_recovers;
    Alcotest.test_case "remote backend exhausts retries deterministically"
      `Quick test_remote_retry_exhaustion;
    Alcotest.test_case "remote backend reports task exceptions" `Quick
      test_remote_task_failure;
    Alcotest.test_case "remote backend times out a wedged worker" `Quick
      test_remote_timeout_replaces_wedged_worker;
    Alcotest.test_case "workers write artifacts to the parent's disk CAS"
      `Quick test_remote_workers_share_disk_cas;
    Alcotest.test_case "--workers spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "standalone daemon serves successive parents" `Quick
      test_remote_daemon_reconnect;
    Alcotest.test_case "standalone daemon enforces the shared secret" `Quick
      test_remote_daemon_token_auth;
    Alcotest.test_case "standalone daemon drops an idle connection" `Quick
      test_remote_daemon_drops_idle_connection;
    Alcotest.test_case "non-loopback bind requires a shared secret" `Quick
      test_serve_forever_refuses_open_bind_without_token;
  ]
