(* Engine.Transport: the shared worker-transport scheduler, driven
   through fake endpoints so every protocol failure mode is exercised
   deterministically and in-process.

   The fuzz tests mirror test_netflow_wire's truncation sweep: a
   worker stream that dies mid-frame, or that carries garbage instead
   of frames, must never raise out of the scheduler — it reads as that
   worker crashing, and with retries exhausted the task surfaces as
   [Error (Worker_lost _)] in the result array. *)

(* A fake endpoint is a pair of pipes. The parent writes down-frames
   into [down_w] (we keep [down_r] open so dispatch writes never hit
   EPIPE — a worker that stopped reading is a different failure mode
   than one that wrote garbage); the "worker" side is whatever bytes
   the test pre-loads into the up pipe before closing its write end. *)
type fake = {
  f_ep : Engine.Transport.endpoint;
  f_down_r : Unix.file_descr;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let fake_endpoint ~up_bytes =
  let down_r, down_w = Unix.pipe ~cloexec:true () in
  let up_r, up_w = Unix.pipe ~cloexec:true () in
  let n = String.length up_bytes in
  if n > 0 then begin
    let written = Unix.write_substring up_w up_bytes 0 n in
    if written <> n then failwith "fake endpoint: short preload write"
  end;
  (* EOF after the preloaded bytes: the stream is dead. *)
  Unix.close up_w;
  {
    f_ep =
      {
        Engine.Transport.ep_send = down_w;
        ep_recv = up_r;
        ep_kill = (fun () -> ());
        ep_close =
          (fun () ->
            close_noerr down_w;
            close_noerr up_r);
      };
    f_down_r = down_r;
  }

(* Run one 1-task map over endpoints that each speak [up_bytes], with
   [spares] fresh ones supplied through respawn, and return the single
   result. The task itself must never run locally (the scheduler only
   drains locally once every endpoint is gone AND the task was never
   charged a crash past its retry budget), so it raises if called. *)
let map_against ?timeout_s ~retries ~spares up_bytes =
  let fakes = ref [ fake_endpoint ~up_bytes ] in
  let spares = ref (List.init spares (fun _ -> ())) in
  let respawn _slot =
    match !spares with
    | [] -> None
    | () :: rest ->
        spares := rest;
        let f = fake_endpoint ~up_bytes in
        fakes := f :: !fakes;
        Some f.f_ep
  in
  let sched =
    Engine.Transport.make_sched ~retries ?timeout_s ~steal_after:30. ~respawn
      [| Some (List.hd !fakes).f_ep |]
  in
  let finally () =
    Engine.Transport.shutdown sched;
    List.iter (fun f -> close_noerr f.f_down_r) !fakes
  in
  Fun.protect ~finally @@ fun () ->
  let out =
    Engine.Transport.map sched
      (fun _ -> Alcotest.fail "task ran locally despite a charged crash")
      [| 0 |]
  in
  Alcotest.(check int) "one result" 1 (Array.length out);
  out.(0)

let check_worker_lost ~attempts what result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected Worker_lost, got Ok" what
  | Error (Engine.Transport.Worker_lost { attempts = a; _ }, _) ->
      Alcotest.(check int) (what ^ ": attempts") attempts a
  | Error (exn, _) ->
      Alcotest.failf "%s: expected Worker_lost, got %s" what
        (Printexc.to_string exn)

(* One well-formed up-frame for task 0, as a worker would emit it —
   the truncation sweep cuts it at every interesting length. *)
let valid_result_frame ~seq =
  let payload =
    Marshal.to_string
      (Engine.Transport.Result (seq, Ok (Obj.repr 42)))
      []
  in
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.to_string b

(* (a) Truncation fuzz: a stream cut anywhere inside a valid frame —
   inside the length header, at the header boundary, mid-payload, one
   byte short — never raises; the task dies as Worker_lost. *)
let test_truncated_frames_surface_as_worker_lost () =
  let frame = valid_result_frame ~seq:0 in
  let n = String.length frame in
  let cuts = [ 0; 1; 2; 3; 4; 5; 8; n / 2; n - 2; n - 1 ] in
  List.iter
    (fun cut ->
      let cut = min cut (n - 1) in
      let r =
        map_against ~retries:0 ~spares:0 (String.sub frame 0 cut)
      in
      check_worker_lost ~attempts:1
        (Printf.sprintf "cut at %d/%d" cut n)
        r)
    cuts

(* (b) Garbage streams: arbitrary bytes, an over-limit length header,
   a negative length header, and a well-framed payload that is not a
   Marshal value at all. All are worker crashes, never exceptions. *)
let test_garbage_frames_surface_as_worker_lost () =
  let huge = Bytes.create 8 in
  Bytes.set_int32_be huge 0 0x7fff_ffffl;
  let negative = Bytes.create 8 in
  Bytes.set_int32_be negative 0 (-1l);
  let framed_garbage =
    let b = Bytes.create 9 in
    Bytes.set_int32_be b 0 5l;
    Bytes.blit_string "hello" 0 b 4 5;
    Bytes.to_string b
  in
  List.iter
    (fun (what, bytes) ->
      check_worker_lost ~attempts:1 what
        (map_against ~retries:0 ~spares:0 bytes))
    [
      ("random bytes", "\xff\xfe\x00\x41 not a frame \x00\x01");
      ("huge length header", Bytes.to_string huge);
      ("negative length header", Bytes.to_string negative);
      ("well-framed non-Marshal payload", framed_garbage);
    ]

(* (c) A syntactically valid Result frame for a task the worker was
   never given is a protocol violation — same containment. *)
let test_wrong_seq_result_is_a_crash () =
  check_worker_lost ~attempts:1 "wrong-seq result"
    (map_against ~retries:0 ~spares:0 (valid_result_frame ~seq:99))

(* (d) Retry accounting across respawns: retries=1 means the task is
   charged two crashed executions (the respawned endpoint speaks the
   same garbage) before Worker_lost reports attempts=2. *)
let test_retries_span_respawned_workers () =
  check_worker_lost ~attempts:2 "two garbage workers"
    (map_against ~retries:1 ~spares:3 "definitely not a frame")

(* (e) Handshake: the stream must open with the magic — stray bytes
   ahead of it are rejected, not skipped — and a peer that stays
   silent, or sends part of the handshake and stalls, fails the
   deadline instead of hanging. *)
let test_handshake_rejects_noise_and_deadline () =
  let preload w bytes =
    let n = Unix.write_substring w bytes 0 (String.length bytes) in
    Alcotest.(check int) "bytes preloaded" (String.length bytes) n
  in
  let m = Engine.Transport.magic in
  (* The clean stream: magic, then the ready frame. *)
  let r, w = Unix.pipe ~cloexec:true () in
  preload w m;
  Engine.Transport.write_frame w "readyk";
  Engine.Transport.handshake ~deadline_s:5.0 ~token:"k" r;
  Unix.close r;
  Unix.close w;
  (* Noise ahead of the magic. *)
  let r, w = Unix.pipe ~cloexec:true () in
  preload w ("stray stdout chatter \001\253 almost-magic \002" ^ m);
  Engine.Transport.write_frame w "readyk";
  (match Engine.Transport.handshake ~deadline_s:5.0 ~token:"k" r with
  | () -> Alcotest.fail "handshake accepted noise ahead of the magic"
  | exception (Failure _ | End_of_file) -> ());
  Unix.close r;
  Unix.close w;
  (* Deadline: a silent peer, then one that sends the magic and half a
     frame header. *)
  List.iter
    (fun (what, bytes) ->
      let r, w = Unix.pipe ~cloexec:true () in
      if bytes <> "" then preload w bytes;
      let t0 = Unix.gettimeofday () in
      (match Engine.Transport.handshake ~deadline_s:0.2 ~token:"k" r with
      | () -> Alcotest.failf "handshake succeeded against a %s peer" what
      | exception (Failure _ | End_of_file) -> ());
      let wall = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s peer timed out near the deadline (%.2fs)" what wall)
        true (wall < 2.);
      Unix.close r;
      Unix.close w)
    [ ("silent", ""); ("stalling", m ^ "\000\000") ]

(* (e') The worker side of the same rule: a parent that connects and
   never sends its auth preamble is dropped at the deadline, so it
   cannot hold a one-connection-at-a-time daemon. *)
let test_serve_worker_drops_silent_parent () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  (match
     Engine.Transport.serve_worker ~in_fd:in_r ~out_fd:out_w ~token:"k"
       ~auth_deadline_s:0.2 ()
   with
  | () -> Alcotest.fail "serve_worker returned for a silent parent"
  | exception Engine.Transport.Auth_failure -> ()
  | exception exn ->
      Alcotest.failf "expected Auth_failure, got %s" (Printexc.to_string exn));
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "dropped near the deadline (%.2fs)" wall)
    true (wall < 2.);
  List.iter Unix.close [ in_r; in_w; out_r; out_w ]

(* (f) Frame IO round-trip, including the empty frame and one bigger
   than a pipe buffer. A regular file stands in for the socket — a
   single-threaded test writing 70 kB into its own unread pipe would
   deadlock on the pipe buffer, and forking a writer child is off the
   table once earlier suites have spawned domains. *)
let test_frame_roundtrip () =
  let frames = [ ""; "x"; String.make 70_000 'q' ] in
  let path = Filename.temp_file "tiered-frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
      List.iter (fun s -> Engine.Transport.write_frame w s) frames;
      Unix.close w;
      let r = Unix.openfile path [ Unix.O_RDONLY ] 0o600 in
      Fun.protect
        ~finally:(fun () -> Unix.close r)
        (fun () ->
          List.iter
            (fun s ->
              Alcotest.(check string)
                (Printf.sprintf "frame of %d bytes" (String.length s))
                s
                (Engine.Transport.read_frame r))
            frames;
          match Engine.Transport.read_frame r with
          | _ -> Alcotest.fail "read_frame past EOF returned"
          | exception End_of_file -> ()))

(* (g) The shared-secret preamble: a peer presenting the wrong token —
   or a hostile length header in place of one — is rejected before any
   frame is unmarshalled (task frames carry closures, so this gate is
   what stands between an open port and code execution); the right
   token proceeds to the magic/ready handshake, which carries the
   token back so the parent authenticates the worker too. *)
let test_auth_preamble () =
  let serve ~preload ~token =
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    preload in_w;
    Unix.close in_w;
    let result =
      match
        Engine.Transport.serve_worker ~in_fd:in_r ~out_fd:out_w ~token
          ~auth_deadline_s:5.0 ()
      with
      | () -> Ok ()
      | exception exn -> Error exn
    in
    Unix.close in_r;
    Unix.close out_w;
    (result, out_r)
  in
  (* Wrong token: rejected, nothing written back. *)
  let result, out_r =
    serve
      ~preload:(fun fd -> Engine.Transport.write_auth fd ~token:"wrong")
      ~token:"s3cret"
  in
  (match result with
  | Ok _ -> Alcotest.fail "serve_worker accepted a wrong token"
  | Error Engine.Transport.Auth_failure -> ()
  | Error exn ->
      Alcotest.failf "expected Auth_failure, got %s" (Printexc.to_string exn));
  Unix.close out_r;
  (* A huge length header where the token frame should be: same
     rejection, and crucially no giant allocation or unmarshalling. *)
  let result, out_r =
    serve
      ~preload:(fun fd ->
        let hdr = Bytes.create 8 in
        Bytes.set_int32_be hdr 0 0x7fff_ffffl;
        let n = Unix.write fd hdr 0 8 in
        Alcotest.(check int) "hostile header preloaded" 8 n)
      ~token:"s3cret"
  in
  (match result with
  | Ok _ -> Alcotest.fail "serve_worker accepted a hostile auth header"
  | Error Engine.Transport.Auth_failure -> ()
  | Error exn ->
      Alcotest.failf "expected Auth_failure, got %s" (Printexc.to_string exn));
  Unix.close out_r;
  (* Right token: the worker serves (EOF after config ends the loop)
     and its ready frame authenticates back under the same token. *)
  let result, out_r =
    serve
      ~preload:(fun fd ->
        Engine.Transport.write_auth fd ~token:"s3cret";
        Engine.Transport.write_config fd)
      ~token:"s3cret"
  in
  (match result with
  | Ok _ -> ()
  | Error exn ->
      Alcotest.failf "right token rejected: %s" (Printexc.to_string exn));
  Engine.Transport.handshake ~deadline_s:5.0 ~token:"s3cret" out_r;
  Unix.close out_r;
  (* And a parent expecting a different token rejects that worker. *)
  let result, out_r =
    serve
      ~preload:(fun fd ->
        Engine.Transport.write_auth fd ~token:"s3cret";
        Engine.Transport.write_config fd)
      ~token:"s3cret"
  in
  (match result with
  | Ok _ -> ()
  | Error exn ->
      Alcotest.failf "right token rejected: %s" (Printexc.to_string exn));
  (match Engine.Transport.handshake ~deadline_s:5.0 ~token:"other" out_r with
  | () -> Alcotest.fail "handshake accepted a worker holding another token"
  | exception (Failure _ | End_of_file) -> ());
  Unix.close out_r

let suite =
  [
    Alcotest.test_case "truncated frames surface as Worker_lost" `Quick
      test_truncated_frames_surface_as_worker_lost;
    Alcotest.test_case "garbage frames surface as Worker_lost" `Quick
      test_garbage_frames_surface_as_worker_lost;
    Alcotest.test_case "wrong-sequence result is a crash" `Quick
      test_wrong_seq_result_is_a_crash;
    Alcotest.test_case "retry accounting spans respawned workers" `Quick
      test_retries_span_respawned_workers;
    Alcotest.test_case "handshake rejects noise and enforces the deadline"
      `Quick test_handshake_rejects_noise_and_deadline;
    Alcotest.test_case "serve_worker drops a silent parent at the deadline"
      `Quick test_serve_worker_drops_silent_parent;
    Alcotest.test_case "frame IO round-trips" `Quick test_frame_roundtrip;
    Alcotest.test_case "auth preamble gates the protocol" `Quick
      test_auth_preamble;
  ]
