(* End-to-end tests for the simulation daemon: admission and shedding,
   deadlines, the isomorphic-instance result cache, worker-kill retries,
   and graceful drain.

   Each test starts a real daemon (in a thread — [Daemon.serve] blocks)
   with real worker subprocesses: the daemon re-executes this test
   binary with the service child flag, which [maybe_run_child] (called
   from main.ml before alcotest) routes to [Daemon.worker_main].  The
   exit-code test runs the whole daemon as a subprocess the same way and
   SIGTERMs it. *)
open Ncg_experiments
open Ncg_service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let child_flag = "--ncg-serve-child"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "ncg_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Child modes                                                         *)
(* ------------------------------------------------------------------ *)

let daemon_child = function
  | [ socket_path; lease_dir ] ->
      let cfg =
        Daemon.config ~workers:1 ~socket_path
          ~worker_argv:
            [| Sys.executable_name; child_flag; "worker" |]
          ~lease_dir ~drain_grace:5.0 ()
      in
      exit (Daemon.serve cfg)
  | _ ->
      prerr_endline "bad serve daemon-child arguments";
      exit 64

let maybe_run_child () =
  let rec after_flag = function
    | [] -> None
    | flag :: rest when flag = child_flag -> Some rest
    | _ :: rest -> after_flag rest
  in
  match after_flag (Array.to_list Sys.argv) with
  | None -> ()
  | Some [ "worker"; slot; lease_dir; hb ] ->
      Daemon.worker_main ~slot:(int_of_string slot) ~lease_dir
        ~heartbeat_interval:(float_of_string hb) ();
      exit 0
  | Some ("daemon" :: args) -> daemon_child args
  | Some _ ->
      prerr_endline "unknown serve child mode";
      exit 64

(* ------------------------------------------------------------------ *)
(* In-process daemon + protocol client helpers                         *)
(* ------------------------------------------------------------------ *)

let daemon_config ?(workers = 1) ?max_queue ?max_wait ?(max_attempts = 3)
    ?(retry_base = 0.05) ?deadline_grace ?frame_timeout dir =
  Daemon.config ~workers ?max_queue ?max_wait ~max_attempts ~retry_base
    ~heartbeat_interval:0.05 ~heartbeat_timeout:1.0 ?deadline_grace
    ?frame_timeout ~drain_grace:10.0 ~tick_interval:0.01
    ~socket_path:(Filename.concat dir "ncg.sock")
    ~worker_argv:[| Sys.executable_name; child_flag; "worker" |]
    ~lease_dir:(Filename.concat dir "leases")
    ()

let wait_for ?(timeout = 10.0) what pred =
  let deadline = Clock.monotonic () +. timeout in
  let rec go () =
    if pred () then ()
    else if Clock.monotonic () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Sysx.sleepf 0.02;
      go ()
    end
  in
  go ()

(* A daemon running in a background thread, stopped via the protocol's
   drain op (so tests never signal their own process). *)
let with_daemon cfg f =
  let code = ref (-1) in
  let th = Thread.create (fun () -> code := Daemon.serve cfg) () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        (* put the daemon down whether the test passed or failed; a
           second drain of an already-gone daemon is a no-op *)
        (try
           let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           Unix.connect fd (Unix.ADDR_UNIX cfg.Daemon.socket_path);
           Sysx.write_all fd (Bytes.of_string "{\"op\":\"drain\"}\n");
           Unix.close fd
         with Unix.Unix_error _ -> ());
        Thread.join th)
      (fun () ->
        wait_for "daemon socket" (fun () ->
            Sys.file_exists cfg.Daemon.socket_path);
        f ())
  in
  (r, !code)

type client = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect cfg =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX cfg.Daemon.socket_path);
  { fd; buf = Buffer.create 1024; chunk = Bytes.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send c line = Sysx.write_all c.fd (Bytes.of_string (line ^ "\n"))

let rec recv c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      let line = String.sub s 0 i in
      (match Json.parse line with
      | j -> j
      | exception Json.Parse_error m ->
          Alcotest.failf "unparseable reply %S: %s" line m)
  | None ->
      let k = Sysx.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if k = 0 then Alcotest.fail "connection closed mid-conversation"
      else begin
        Buffer.add_subbytes c.buf c.chunk 0 k;
        recv c
      end

let jstr j key = Option.bind (Json.member key j) Json.to_str
let jint j key = Option.bind (Json.member key j) Json.to_int
let reply_type j = jstr j "type"
let reply_status j = jstr j "status"

(* reads replies until the first [outcome] (skipping acks/incidents) *)
let rec next_outcome c =
  let j = recv c in
  match reply_type j with
  | Some "outcome" -> j
  | Some ("ack" | "incident") -> next_outcome c
  | Some "error" -> Alcotest.failf "request rejected: %s" (Json.to_string j)
  | _ -> Alcotest.failf "unexpected reply: %s" (Json.to_string j)

let submit_line ?deadline ?(n = 8) ?(trials = 2) ?(seed = 41) ?(alpha = "3")
    ?host () =
  let fields =
    [
      ("op", Json.Str "submit");
      ("game", Json.Str "sg");
      ("alpha", Json.Str alpha);
      ("n", Json.Int n);
      ("seed", Json.Int seed);
      ("trials", Json.Int trials);
      ("edge_prob", Json.Float 0.2);
    ]
    @ (match host with
      | Some pairs ->
          [
            ( "host",
              Json.List
                (List.map
                   (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ])
                   pairs) );
          ]
      | None -> [])
    @
    match deadline with
    | Some d -> [ ("deadline", Json.Float d) ]
    | None -> []
  in
  Json.to_string (Json.Obj fields)

(* a job heavy enough to hold a worker busy for seconds *)
let slow_submit () = submit_line ~n:40 ~trials:100_000 ~alpha:"5" ()

let health c =
  send c "{\"op\":\"health\"}";
  let rec go () =
    let j = recv c in
    if reply_type j = Some "health" then j else go ()
  in
  go ()

let busy_worker_pid hc =
  let j = health hc in
  match Json.member "workers" j with
  | Some (Json.List ws) ->
      List.find_map
        (fun w ->
          match (Json.member "busy" w, jint w "pid") with
          | Some (Json.Bool true), Some pid -> Some pid
          | _ -> None)
        ws
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_shed_queue_full () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config ~workers:1 ~max_queue:1 dir in
      let (), code =
        with_daemon cfg (fun () ->
            let c = connect cfg and hc = connect cfg in
            Fun.protect
              ~finally:(fun () ->
                close c;
                close hc)
              (fun () ->
                (* occupy the single worker *)
                send c (slow_submit ());
                check "busy job acked" true (reply_type (recv c) = Some "ack");
                wait_for "worker busy" (fun () -> busy_worker_pid hc <> None);
                (* fill the queue bound *)
                send c (submit_line ~seed:42 ());
                check "queued job acked" true
                  (reply_type (recv c) = Some "ack");
                (* and overflow it: typed shed, nothing enqueued *)
                send c (submit_line ~seed:43 ());
                let shed = next_outcome c in
                check_str "load shed" "shed"
                  (Option.value (reply_status shed) ~default:"?");
                check_str "with reason" "queue_full"
                  (Option.value (jstr shed "reason") ~default:"?");
                check "retry-after hint present" true
                  (match
                     Option.bind
                       (Json.member "retry_after" shed)
                       Json.to_float_opt
                   with
                  | Some h -> h > 0.0
                  | None -> false);
                (* drain: the queued job resolves as a typed draining
                   shed, the in-flight one is allowed to finish *)
                send hc "{\"op\":\"drain\"}";
                let o2 = next_outcome c in
                check_str "queued job shed at drain" "shed"
                  (Option.value (reply_status o2) ~default:"?");
                check_str "draining reason" "draining"
                  (Option.value (jstr o2 "reason") ~default:"?");
                let o1 = next_outcome c in
                check "in-flight job got a typed outcome" true
                  (match reply_status o1 with
                  | Some ("completed" | "faulted" | "deadline_exceeded") ->
                      true
                  | _ -> false)))
      in
      check_int "protocol drain exits 0" 0 code)

let test_deadline_exceeded () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config ~workers:1 ~deadline_grace:0.5 dir in
      let (), _ =
        with_daemon cfg (fun () ->
            let c = connect cfg in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                send c
                  (submit_line ~n:40 ~trials:100_000 ~alpha:"5"
                     ~deadline:0.3 ());
                let t0 = Clock.monotonic () in
                let o = next_outcome c in
                let dt = Clock.monotonic () -. t0 in
                check_str "typed deadline outcome" "deadline_exceeded"
                  (Option.value (reply_status o) ~default:"?");
                check "resolved near the deadline, not at job length" true
                  (dt < 5.0)))
      in
      ())

let path_host n = List.init (n - 1) (fun i -> (i, i + 1))

(* the same path relabeled: vertex i -> (3 * i + 1) mod n, a bijection
   whenever gcd(3, n) = 1 *)
let relabeled_path_host n =
  List.map
    (fun (u, v) -> ((3 * u + 1) mod n, (3 * v + 1) mod n))
    (path_host n)

let test_cache_isomorphic_hosts () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config ~workers:2 dir in
      let (), _ =
        with_daemon cfg (fun () ->
            let c = connect cfg in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                send c (submit_line ~n:8 ~trials:3 ~host:(path_host 8) ());
                let o1 = next_outcome c in
                check_str "fresh run completed" "completed"
                  (Option.value (reply_status o1) ~default:"?");
                check "fresh run not cached" true
                  (Json.member "cached" o1 = Some (Json.Bool false));
                (* an isomorphic (relabeled) host with equal parameters:
                   answered from the cache, bit-identical summary *)
                send c
                  (submit_line ~n:8 ~trials:3 ~host:(relabeled_path_host 8)
                     ());
                let o2 = next_outcome c in
                check_str "isomorphic resubmission completed" "completed"
                  (Option.value (reply_status o2) ~default:"?");
                check "served from cache" true
                  (Json.member "cached" o2 = Some (Json.Bool true));
                let summary o =
                  match Json.member "summary" o with
                  | Some s -> Json.to_string s
                  | None -> Alcotest.fail "outcome without summary"
                in
                check_str "cached reply bit-identical to fresh run"
                  (summary o1) (summary o2);
                (* a NON-isomorphic host of the same size must miss *)
                send c
                  (submit_line ~n:8 ~trials:3
                     ~host:((0, 7) :: path_host 8)
                     ());
                let o3 = next_outcome c in
                check "different instance recomputed" true
                  (Json.member "cached" o3 = Some (Json.Bool false));
                (* the workers ran exactly the two computed jobs' trials;
                   the cache hit ran none *)
                let batch =
                  Option.value (Json.member "batch" (health c))
                    ~default:(Json.Obj [])
                in
                check "health batch counts the computed trials" true
                  (jint batch "batched_trials" = Some 6)))
      in
      ())

let test_worker_kill_retry_then_faulted () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config ~workers:1 ~max_attempts:2 dir in
      let (), _ =
        with_daemon cfg (fun () ->
            let c = connect cfg and hc = connect cfg in
            Fun.protect
              ~finally:(fun () ->
                close c;
                close hc)
              (fun () ->
                send c (slow_submit ());
                check "acked" true (reply_type (recv c) = Some "ack");
                (* first kill: the job must come back as an incident and
                   be retried on a respawned worker *)
                wait_for "attempt 1 in flight" (fun () ->
                    busy_worker_pid hc <> None);
                let pid1 = Option.get (busy_worker_pid hc) in
                Unix.kill pid1 Sys.sigkill;
                let inc = recv c in
                check_str "incident reported to the client" "incident"
                  (Option.value (reply_type inc) ~default:"?");
                check "incident names the attempt" true
                  (jint inc "attempt" = Some 1);
                check "incident promises a retry" true
                  (Json.member "retry_in" inc <> None);
                (* second kill exhausts the attempt cap *)
                wait_for "attempt 2 in flight" (fun () ->
                    match busy_worker_pid hc with
                    | Some pid -> pid <> pid1
                    | None -> false);
                let pid2 = Option.get (busy_worker_pid hc) in
                Unix.kill pid2 Sys.sigkill;
                let o = next_outcome c in
                check_str "typed faulted outcome" "faulted"
                  (Option.value (reply_status o) ~default:"?");
                check "attempts reported" true (jint o "attempts" = Some 2);
                (* the daemon itself survived: health still answers and a
                   fresh (small) job completes on a respawned worker *)
                send c (submit_line ~seed:99 ());
                let o2 = next_outcome c in
                check_str "daemon still serves after the storm" "completed"
                  (Option.value (reply_status o2) ~default:"?")))
      in
      ())

let test_sigterm_drains_and_exits_143 () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "ncg.sock" in
      let lease_dir = Filename.concat dir "leases" in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; child_flag; "daemon"; socket_path; lease_dir |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      wait_for "daemon subprocess socket" (fun () ->
          Sys.file_exists socket_path);
      (* submit one job so the drain has something in flight *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Sysx.write_all fd
        (Bytes.of_string (submit_line ~n:10 ~trials:2 () ^ "\n"));
      Unix.kill pid Sys.sigterm;
      (match Sysx.waitpid [] pid with
      | _, Unix.WEXITED code -> check_int "exit code 143 after SIGTERM" 143 code
      | _ -> Alcotest.fail "daemon did not exit normally");
      try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Wire-frame robustness (Sysx.Faulty short reads, slow-loris)         *)
(* ------------------------------------------------------------------ *)

(* a request frame must survive arriving in arbitrary fragments: the
   client dribbles it out in 3-byte writes while an injected short-read
   plan caps every read(2) in the process — daemon accept loop, worker
   pipes, and our own client — at 3 bytes, so reassembly happens at
   every boundary a real network could produce *)
let test_frames_survive_arbitrary_split () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config ~workers:1 dir in
      let (), _ =
        with_daemon cfg (fun () ->
            let c = connect cfg in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                Sysx.Faulty.arm
                  [
                    { Sysx.Faulty.op = Sysx.Faulty.Read; where = None; at = 0;
                      act = Sysx.Faulty.Short 3 };
                  ];
                Fun.protect ~finally:Sysx.Faulty.disarm (fun () ->
                    let line = submit_line ~n:6 ~trials:2 () ^ "\n" in
                    let b = Bytes.of_string line in
                    let off = ref 0 in
                    while !off < Bytes.length b do
                      let k = min 3 (Bytes.length b - !off) in
                      Sysx.write_all c.fd (Bytes.sub b !off k);
                      off := !off + k
                    done;
                    let o = next_outcome c in
                    check_str "fragmented frame still completes" "completed"
                      (Option.value (reply_status o) ~default:"?"))))
      in
      ())

(* a connection that buffers half a frame and then goes silent must not
   hold its handler thread hostage: the per-frame deadline closes it and
   counts it, while idle and fresh connections are unaffected *)
let test_slow_loris_disconnected () =
  with_temp_dir (fun dir ->
      let cfg = daemon_config ~workers:1 ~frame_timeout:0.3 dir in
      let (), _ =
        with_daemon cfg (fun () ->
            let loris = connect cfg in
            Fun.protect
              ~finally:(fun () -> close loris)
              (fun () ->
                (* half a frame, then silence *)
                Sysx.write_all loris.fd (Bytes.of_string "{\"op\":\"hea");
                let t0 = Clock.monotonic () in
                let k =
                  Sysx.read loris.fd loris.chunk 0 (Bytes.length loris.chunk)
                in
                let dt = Clock.monotonic () -. t0 in
                check_int "daemon hung up on the stalled frame" 0 k;
                check "at the frame deadline, not the drain" true (dt < 5.0);
                (* the daemon is fine: a fresh connection gets served and
                   the stall was counted *)
                let hc = connect cfg in
                Fun.protect
                  ~finally:(fun () -> close hc)
                  (fun () ->
                    let j = health hc in
                    let stalled =
                      Option.bind
                        (Option.bind
                           (Option.bind (Json.member "metrics" j)
                              (Json.member "counters"))
                           (Json.member "stalled_conns"))
                        Json.to_int
                    in
                    check "stalled connection counted" true
                      (match stalled with Some n -> n >= 1 | None -> false))))
      in
      ())

(* ------------------------------------------------------------------ *)
(* Protocol unit tests (no daemon)                                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "{}";
      "{\"a\":1,\"b\":[true,false,null],\"c\":\"x\\\"y\"}";
      "[1,2.5,-3,\"\\u00e9\"]";
      "\"plain\"";
    ]
  in
  List.iter
    (fun s ->
      let j = Json.parse s in
      let j' = Json.parse (Json.to_string j) in
      check ("roundtrip " ^ s) true (j = j'))
    cases;
  check "trailing garbage rejected" true
    (match Json.parse "{} x" with
    | exception Json.Parse_error _ -> true
    | _ -> false);
  check "floats that are integral parse as ints" true
    (Json.to_int (Json.Float 3.0) = Some 3)

let test_job_validation () =
  let parse s = Proto.job_of_json (Json.parse s) in
  check "minimal job parses" true
    (match parse "{\"game\":\"sg\",\"n\":5}" with Ok _ -> true | _ -> false);
  check "float alpha rejected (exactness)" true
    (match parse "{\"game\":\"sg\",\"n\":5,\"alpha\":2.5}" with
    | Error _ -> true
    | _ -> false);
  check "rational alpha accepted" true
    (match parse "{\"game\":\"sg\",\"n\":5,\"alpha\":\"5/2\"}" with
    | Ok j -> Ncg_rational.Q.to_string j.Proto.alpha = "5/2"
    | _ -> false);
  check "duplicate host edge rejected" true
    (match
       parse "{\"game\":\"sg\",\"n\":3,\"host\":[[0,1],[1,2],[1,0]]}"
     with
    | Error m -> String.length m > 0
    | _ -> false);
  check "out-of-range host edge rejected" true
    (match parse "{\"game\":\"sg\",\"n\":3,\"host\":[[0,3]]}" with
    | Error _ -> true
    | _ -> false)

let suite =
  ( "service",
    [
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "job validation" `Quick test_job_validation;
      Alcotest.test_case "shed on queue overflow" `Quick test_shed_queue_full;
      Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
      Alcotest.test_case "isomorphic hosts hit the cache" `Quick
        test_cache_isomorphic_hosts;
      Alcotest.test_case "worker kill: retry then faulted" `Quick
        test_worker_kill_retry_then_faulted;
      Alcotest.test_case "SIGTERM drains and exits 143" `Quick
        test_sigterm_drains_and_exits_143;
      Alcotest.test_case "frames survive arbitrary read splits" `Quick
        test_frames_survive_arbitrary_split;
      Alcotest.test_case "slow-loris frame is cut off and counted" `Quick
        test_slow_loris_disconnected;
    ] )
