(* io_torture: the crash-consistency oracle for every durable artifact.

   For each artifact (checkpoint rewrite, checkpoint append, lease save,
   incident log append) the harness first PROBES the artifact's write
   sequence under Sysx.Faulty tracing to enumerate its faultable
   syscalls, then re-runs the sequence once per crash/fault point in a
   fresh subprocess: the child arms a one-rule plan (crash before the
   k-th syscall, crash after the last, EIO at the k-th, a torn write)
   and dies exactly there, like a power failure.  The parent then runs
   the artifact's recovery path and asserts its typed invariants:

   - checkpoint rewrite: readers see the old record set or the new one,
     never a torn file; stale temp files are swept on the next open;
   - checkpoint append: recovered trials are a prefix of the appends,
     with at most one corrupt line, and only as the torn tail;
   - lease: the file always loads, the fencing token (attempts/owner)
     never regresses, and a dead writer's temp file is swept with a
     typed incident;
   - incident log: every newline-terminated line is valid JSON, complete
     records form a prefix, only the final line may be torn.

   A live-daemon leg drives the wire protocol the same way: frames split
   at arbitrary read boundaries (daemon-side short-read plan, loadgen
   --stutter 1), a torn frame followed by reset, and a slow-loris stall
   that must be torn down by the frame deadline — all with zero lost or
   duplicated outcomes under the loadgen cross-check.

     dune exec tools/io_torture.exe -- \
       --dir torture --loadgen _build/default/tools/loadgen.exe \
       --json IO_TORTURE.json *)

open Ncg_core
open Ncg_experiments
module Daemon = Ncg_service.Daemon
module Json = Ncg_service.Json
module Faulty = Sysx.Faulty
module Carto = Ncg_search.Cartography

(* ------------------------------------------------------------------ *)
(* Child / worker dispatch (before Arg parsing)                        *)
(* ------------------------------------------------------------------ *)

let fp = "io-torture fp=1"
let key = "torture|n=9"

let outcome steps =
  Stats.of_verdict (Stats.Finished { reason = Engine.Converged; steps })

let old_records = List.init 3 (fun i -> ((key, i), outcome (10 + i)))
let new_records = List.init 4 (fun i -> ((key, i), outcome (20 + i)))

let ck_path dir = Filename.concat dir "state.ck"
let ilog_path dir = Filename.concat dir "incidents.jsonl"

type scenario = {
  name : string;
  setup : string -> unit;  (* parent, disarmed, fresh dir *)
  action : string -> unit;  (* child, armed — the faulted sequence *)
  verify : string -> string list;  (* parent, disarmed: invariant errors *)
}

(* ---- checkpoint: atomic rewrite ---------------------------------- *)

let sorted_completed cp = List.sort compare (Checkpoint.completed cp ~key)

let expected records =
  List.sort compare (List.map (fun ((_, t), o) -> (t, o)) records)

let verify_ckpt_rewrite dir =
  let path = ck_path dir in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (match
     Checkpoint.open_ ~resume:(Sys.file_exists path) ~fingerprint:fp path
   with
  | exception e -> err "recovery open failed: %s" (Printexc.to_string e)
  | cp ->
      let rep = Checkpoint.load_report cp in
      if rep.Checkpoint.corrupted <> [] then
        err "atomic rewrite left %d torn line(s)"
          (List.length rep.Checkpoint.corrupted);
      let got = sorted_completed cp in
      if got <> expected old_records && got <> expected new_records then
        err "recovered %d records: neither the old set nor the new one"
          (List.length got);
      Checkpoint.close cp;
      if Sys.file_exists (path ^ ".tmp") then
        err "stale %s.tmp survived recovery open" path);
  !errs

let ckpt_rewrite =
  {
    name = "ckpt_rewrite";
    setup =
      (fun dir ->
        Sysx.ensure_dir dir;
        Checkpoint.write_atomically (ck_path dir) fp old_records);
    action = (fun dir -> Checkpoint.write_atomically (ck_path dir) fp new_records);
    verify = verify_ckpt_rewrite;
  }

(* ---- checkpoint: append ------------------------------------------ *)

let append_outcome i = outcome (100 + i)

let verify_ckpt_append dir =
  let path = ck_path dir in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (match Checkpoint.open_ ~resume:true ~fingerprint:fp path with
  | exception e -> err "recovery open failed: %s" (Printexc.to_string e)
  | cp ->
      let rep = Checkpoint.load_report cp in
      (match rep.Checkpoint.corrupted with
      | [] -> ()
      | [ c ] when c.Checkpoint.tail -> ()  (* the torn tail of the crash *)
      | cs ->
          err "%d corrupt line(s), not just a torn tail" (List.length cs));
      let trials = List.sort compare (List.map fst (sorted_completed cp)) in
      let rec prefix k = function
        | [] -> true
        | t :: rest -> t = k && prefix (k + 1) rest
      in
      if not (prefix 0 trials) || List.length trials > 5 then
        err "recovered trials are not a prefix of the appends";
      List.iter
        (fun (t, o) ->
          if o <> append_outcome t then
            err "trial %d recovered with the wrong payload" t)
        (sorted_completed cp);
      Checkpoint.close cp);
  !errs

let ckpt_append =
  {
    name = "ckpt_append";
    setup =
      (fun dir ->
        Sysx.ensure_dir dir;
        let cp = Checkpoint.open_ ~fingerprint:fp (ck_path dir) in
        Checkpoint.record cp ~key ~trial:0 (append_outcome 0);
        Checkpoint.close cp);
    action =
      (fun dir ->
        let cp = Checkpoint.open_ ~resume:true ~fingerprint:fp (ck_path dir) in
        for trial = 1 to 4 do
          Checkpoint.record cp ~key ~trial (append_outcome trial)
        done;
        Checkpoint.close cp);
    verify = verify_ckpt_append;
  }

(* ---- lease: fenced save ------------------------------------------ *)

let lease_old =
  {
    Lease.shard = 1;
    lo = 0;
    hi = 10;
    status = Lease.Running;
    owner = 111;
    heartbeat = 5.0;
    attempts = 2;
  }

let lease_new = { lease_old with Lease.owner = 222; attempts = 3 }

let verify_lease dir =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (match Lease.load ~dir ~fingerprint:fp ~shard:1 with
  | Error e -> err "lease unreadable after crash: %s" e
  | Ok l ->
      if
        not
          ((l.Lease.attempts = 2 && l.Lease.owner = 111)
          || (l.Lease.attempts = 3 && l.Lease.owner = 222))
      then
        err "lease is neither old nor new (attempts=%d owner=%d)"
          l.Lease.attempts l.Lease.owner;
      if l.Lease.attempts < 2 then err "fencing token regressed");
  let ilog = Incident_log.open_ (ilog_path dir) in
  let swept = Lease.sweep_stale ~dir ~incidents:ilog () in
  Incident_log.close ilog;
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        err "stale lease tmp %s survived sweep" name)
    (Sys.readdir dir);
  (if swept > 0 then
     let ic = open_in (ilog_path dir) in
     let line = try input_line ic with End_of_file -> "" in
     close_in ic;
     let has_event =
       match Json.parse line with
       | exception Json.Parse_error _ -> false
       | j -> Option.bind (Json.member "event" j) Json.to_str
              = Some "stale_tmp_swept"
     in
     if not has_event then err "sweep of %d tmp(s) logged no typed event" swept);
  !errs

let lease_save =
  {
    name = "lease";
    setup =
      (fun dir ->
        Sysx.ensure_dir dir;
        Lease.save ~dir ~fingerprint:fp lease_old);
    action = (fun dir -> Lease.save ~dir ~fingerprint:fp lease_new);
    verify = verify_lease;
  }

(* ---- incident log: JSONL append ---------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let verify_ilog dir =
  let path = ilog_path dir in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (if Sys.file_exists path then
     let body = read_file path in
     let lines = String.split_on_char '\n' body in
     let rec go shard = function
       | [] | [ "" ] -> ()  (* clean final newline *)
       | [ _torn ] -> ()  (* unterminated tail: the crash's torn record *)
       | line :: rest -> (
           match Json.parse line with
           | exception Json.Parse_error m ->
               err "complete line %d is not JSON (%s)" (shard + 1) m
           | j ->
               if Option.bind (Json.member "event" j) Json.to_str
                  <> Some "reassigned"
               then err "line %d is not the expected event" (shard + 1);
               if Option.bind (Json.member "shard" j) Json.to_int
                  <> Some shard
               then err "line %d breaks the record prefix order" (shard + 1);
               go (shard + 1) rest)
     in
     go 0 lines);
  !errs

let ilog_append =
  {
    name = "ilog";
    setup = Sysx.ensure_dir;
    action =
      (fun dir ->
        let log = Incident_log.open_ (ilog_path dir) in
        for shard = 0 to 4 do
          Incident_log.record log (Incident_log.Reassigned { shard; attempt = 1 })
        done;
        Incident_log.close log);
    verify = verify_ilog;
  }

(* ---- cartography: seen-ledger append + chunk-lease save ---------- *)

(* One worker turn of the distributed cartographer: append a batch of
   newly discovered states to a seen-ledger partition, then claim/beat
   the chunk lease.  The crash invariants are the ones DESIGN.md §16's
   exactly-once argument rests on: recovered ledger records are a
   contiguous prefix of the appends (at most one torn tail), and the
   chunk lease never regresses its fencing token. *)

let carto_fp = "io-torture carto fp"
let carto_part = 0
let carto_wdir dir = Filename.concat dir "wave-0000"

let carto_old = [ (0, "5;0,1"); (0, "5;0,2") ]
let carto_new = [ (1, "5;1,2"); (1, "5;2,3"); (1, "5;3,4") ]

let carto_lease_old =
  {
    Lease.shard = 0;
    lo = 0;
    hi = 4;
    status = Lease.Running;
    owner = 111;
    heartbeat = 5.0;
    attempts = 2;
  }

let carto_lease_new = { carto_lease_old with Lease.owner = 222; attempts = 3 }

let verify_carto dir =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let expected = carto_old @ carto_new in
  (match Carto.Ledger.load_part ~dir ~fingerprint:carto_fp ~part:carto_part with
  | Error e -> err "ledger unreadable after crash: %s" e
  | Ok { Carto.Ledger.entries; torn_tail = _ } ->
      (* contiguous prefix: no record lost before a surviving one, none
         reordered, at most the torn tail (already shed by load_part) *)
      let k = List.length entries in
      if k < List.length carto_old then
        err "durable setup records lost (%d survive)" k;
      if entries <> List.filteri (fun i _ -> i < k) expected then
        err "recovered records are not a prefix of the appends");
  (match Lease.load ~dir:(carto_wdir dir) ~fingerprint:carto_fp ~shard:0 with
  | Error e -> err "chunk lease unreadable after crash: %s" e
  | Ok l ->
      if
        not
          ((l.Lease.attempts = 2 && l.Lease.owner = 111)
          || (l.Lease.attempts = 3 && l.Lease.owner = 222))
      then
        err "chunk lease is neither old nor new (attempts=%d owner=%d)"
          l.Lease.attempts l.Lease.owner;
      if l.Lease.attempts < 2 then err "chunk ownership regressed");
  (* recovery repairs the tear; afterwards the whole ledger must load *)
  (match
     Carto.Ledger.rollback ~dir ~fingerprint:carto_fp ~max_wave:max_int
   with
  | exception e -> err "rollback failed: %s" (Printexc.to_string e)
  | _ -> (
      match Carto.Ledger.load_all ~dir ~fingerprint:carto_fp with
      | Error e -> err "ledger still unreadable after rollback: %s" e
      | Ok _ -> ()));
  ignore (Lease.sweep_stale ~dir:(carto_wdir dir) ());
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then
        err "stale chunk-lease tmp %s survived sweep" name)
    (Sys.readdir (carto_wdir dir));
  !errs

let carto_ledger =
  {
    name = "carto";
    setup =
      (fun dir ->
        Sysx.ensure_dir dir;
        Sysx.ensure_dir (carto_wdir dir);
        Carto.Ledger.append ~dir ~fingerprint:carto_fp ~part:carto_part
          carto_old;
        Lease.save ~dir:(carto_wdir dir) ~fingerprint:carto_fp carto_lease_old);
    action =
      (fun dir ->
        Carto.Ledger.append ~dir ~fingerprint:carto_fp ~part:carto_part
          carto_new;
        Lease.save ~dir:(carto_wdir dir) ~fingerprint:carto_fp carto_lease_new);
    verify = verify_carto;
  }

let scenarios = [ ckpt_rewrite; ckpt_append; lease_save; ilog_append; carto_ledger ]

(* ------------------------------------------------------------------ *)
(* Child dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv >= 5 && Sys.argv.(1) = "--worker" then begin
    Daemon.worker_main
      ~slot:(int_of_string Sys.argv.(2))
      ~lease_dir:Sys.argv.(3)
      ~heartbeat_interval:(float_of_string Sys.argv.(4))
      ();
    exit 0
  end;
  if Array.length Sys.argv = 5 && Sys.argv.(1) = "--child" then begin
    let name = Sys.argv.(2) and dir = Sys.argv.(3) and plan = Sys.argv.(4) in
    let sc =
      match List.find_opt (fun s -> s.name = name) scenarios with
      | Some s -> s
      | None ->
          prerr_endline ("unknown scenario " ^ name);
          exit 2
    in
    (match Faulty.parse plan with
    | Error m ->
        prerr_endline ("bad plan: " ^ m);
        exit 2
    | Ok rules -> Faulty.arm rules);
    match sc.action dir with
    | () -> exit 0
    | exception Unix.Unix_error _ -> exit 3  (* typed I/O error escaped *)
    | exception _ -> exit 4  (* anything untyped is a harness failure *)
  end

(* ------------------------------------------------------------------ *)
(* Parent: enumeration and verification                                *)
(* ------------------------------------------------------------------ *)

let artifact = ref "all"
let base_dir = ref "io-torture"
let json_out = ref ""
let loadgen = ref ""
let seed = ref 2013

let spec =
  [
    ( "--artifact",
      Arg.Set_string artifact,
      "A all|ckpt_rewrite|ckpt_append|lease|ilog|carto|daemon" );
    ("--dir", Arg.Set_string base_dir, "DIR scratch directory");
    ("--json", Arg.Set_string json_out, "FILE write the JSON report here");
    ( "--loadgen",
      Arg.Set_string loadgen,
      "PATH loadgen executable for the daemon leg (skipped if absent)" );
    ("--seed", Arg.Set_int seed, "N seed for the daemon-leg load");
  ]

let () = Arg.parse spec (fun _ -> ()) "io_torture [options]"

let failures : string list ref = ref []
let points = ref 0
let per_artifact : (string * int ref) list ref = ref []

let bump name =
  incr points;
  match List.assoc_opt name !per_artifact with
  | Some r -> incr r
  | None -> per_artifact := !per_artifact @ [ (name, ref 1) ]

let fail fmt = Printf.ksprintf (fun m -> failures := !failures @ [ m ]) fmt

(* Probe: run the sequence in-process under tracing to enumerate its
   faultable syscalls.  The child replays the identical stream, so the
   k-th-call indices below land on the same syscalls. *)
let probe sc dir =
  sc.setup dir;
  Faulty.arm ~tracing:true [];
  Fun.protect ~finally:Faulty.disarm (fun () ->
      sc.action dir;
      Faulty.trace ())

let spawn_child sc dir plan =
  let argv = [| Sys.executable_name; "--child"; sc.name; dir; plan |] in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  match Sysx.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> -s

(* The plan matrix for one probed sequence of [n] syscalls ([w] of them
   writes): a power failure immediately before each syscall, one after
   the last, a typed EIO at each, and a 2-byte torn write at each write.
   Expected child exits: 70 for simulated crashes, 0/3 for injected
   errors (absorbed, or escaped as a typed Unix_error). *)
let plan_matrix ~n ~w =
  List.concat
    [
      List.init n (fun i ->
          (Printf.sprintf "any@%d:crash_before" (i + 1), [ 70 ]));
      [ (Printf.sprintf "any@%d:crash_after" n, [ 70 ]) ];
      List.init n (fun i -> (Printf.sprintf "any@%d:err=EIO" (i + 1), [ 0; 3 ]));
      List.init w (fun j -> (Printf.sprintf "write@%d:torn=2" (j + 1), [ 70 ]));
    ]

let run_scenario sc =
  let probe_dir = Filename.concat !base_dir (sc.name ^ "-probe") in
  let trace = probe sc probe_dir in
  let n = List.length trace in
  let w =
    List.length (List.filter (fun (op, _) -> op = Faulty.Write) trace)
  in
  if n = 0 then fail "%s: probe saw no faultable syscalls" sc.name
  else begin
    let plans = plan_matrix ~n ~w in
    Printf.printf "%-13s %2d syscalls (%d writes) -> %d fault points\n%!"
      sc.name n w (List.length plans);
    List.iteri
      (fun i (plan, expect) ->
        let dir = Filename.concat !base_dir (Printf.sprintf "%s-%02d" sc.name i) in
        sc.setup dir;
        let code = spawn_child sc dir plan in
        bump sc.name;
        if not (List.mem code expect) then
          fail "%s[%s]: child exited %d, expected %s" sc.name plan code
            (String.concat "/" (List.map string_of_int expect));
        List.iter (fun m -> fail "%s[%s]: %s" sc.name plan m) (sc.verify dir))
      plans
  end

(* The short-write resume leg: not a crash, but every write capped at
   2 bytes — the sequence must complete and recover byte-identically. *)
let run_short_write sc =
  let dir = Filename.concat !base_dir (sc.name ^ "-short") in
  sc.setup dir;
  let code = spawn_child sc dir "write@0:short=2" in
  bump sc.name;
  if code <> 0 then
    fail "%s[short=2]: child exited %d, expected 0" sc.name code;
  List.iter (fun m -> fail "%s[short=2]: %s" sc.name m) (sc.verify dir)

(* ------------------------------------------------------------------ *)
(* Daemon leg                                                          *)
(* ------------------------------------------------------------------ *)

type reader = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096 }

let rec read_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
  | None ->
      let k = Sysx.read r.fd r.chunk 0 (Bytes.length r.chunk) in
      if k = 0 then None
      else begin
        Buffer.add_subbytes r.buf r.chunk 0 k;
        read_line r
      end

let dial socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Sysx.connect fd (Unix.ADDR_UNIX socket_path);
  fd

let request socket_path line =
  let fd = dial socket_path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Sysx.write_all fd (Bytes.of_string (line ^ "\n"));
      read_line (reader fd))

let run_loadgen ~socket_path ~lease_dir ~out args =
  let argv =
    Array.of_list
      ([
         !loadgen; "--socket"; socket_path; "--lease-dir"; lease_dir;
         "--clients"; "2"; "--jobs"; "4"; "--n"; "8"; "--trials"; "2";
         "--seed"; string_of_int !seed; "--out"; out;
       ]
      @ args)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin null Unix.stderr in
  let code =
    match Sysx.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, _ -> -1
  in
  (try Unix.close null with Unix.Unix_error _ -> ());
  match Json.parse (String.trim (read_file out)) with
  | exception _ -> Error (Printf.sprintf "unreadable report (exit %d)" code)
  | j -> if code = 0 then Ok j else Error (Printf.sprintf "exit %d" code)

let check_report leg = function
  | Error m -> fail "daemon[%s]: loadgen failed: %s" leg m
  | Ok j ->
      let int k = Option.bind (Json.member k j) Json.to_int in
      if int "lost" <> Some 0 then fail "daemon[%s]: jobs lost" leg;
      if int "duplicated" <> Some 0 then
        fail "daemon[%s]: duplicated outcomes" leg;
      if int "terminal" <> int "logical_jobs" then
        fail "daemon[%s]: outcome count mismatch" leg

let run_daemon_leg () =
  let dir = Filename.concat !base_dir "daemon" in
  Sysx.ensure_dir dir;
  let socket_path = Filename.concat dir "ncg.sock" in
  let lease_dir = Filename.concat dir "leases" in
  let incidents = Incident_log.open_ (Filename.concat dir "incidents.jsonl") in
  let cfg =
    Daemon.config ~workers:2 ~heartbeat_interval:0.05 ~heartbeat_timeout:2.0
      ~tick_interval:0.01 ~frame_timeout:0.5 ~retry_base:0.05 ~incidents
      ~socket_path
      ~worker_argv:[| Sys.executable_name; "--worker" |]
      ~lease_dir ()
  in
  let code = ref (-1) in
  let th = Thread.create (fun () -> code := Daemon.serve cfg) () in
  let deadline = Clock.monotonic () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Clock.monotonic () < deadline do
    Sysx.sleepf 0.02
  done;
  (* leg 1: client-side 1-byte stutter — frames split at every boundary *)
  bump "daemon";
  check_report "stutter"
    (run_loadgen ~socket_path ~lease_dir
       ~out:(Filename.concat dir "STUTTER.json")
       [ "--stutter"; "1" ]);
  (* leg 2: daemon-side short reads — 3-byte reads on every fd *)
  bump "daemon";
  Faulty.arm [ { Faulty.op = Faulty.Read; where = None; at = 0;
                 act = Faulty.Short 3 } ];
  Fun.protect ~finally:Faulty.disarm (fun () ->
      check_report "short-read"
        (run_loadgen ~socket_path ~lease_dir
           ~out:(Filename.concat dir "SHORTREAD.json")
           []));
  (* leg 3: torn frame then reset — next connection unaffected *)
  bump "daemon";
  (let fd = dial socket_path in
   Sysx.write_all fd (Bytes.of_string {|{"op":"hea|});
   (try Unix.close fd with Unix.Unix_error _ -> ());
   match request socket_path {|{"op":"health"}|} with
   | Some line
     when (match Json.parse line with
          | j -> Option.bind (Json.member "type" j) Json.to_str = Some "health"
          | exception _ -> false) ->
       ()
   | _ -> fail "daemon[torn-frame]: health failed after a torn frame");
  (* leg 4: slow loris — half a frame, then silence; the frame deadline
     must tear the connection down (EOF), and the daemon must count it *)
  bump "daemon";
  (let fd = dial socket_path in
   Sysx.write_all fd (Bytes.of_string {|{"op":"hea|});
   let eof =
     match Unix.select [ fd ] [] [] 3.0 with
     | [], _, _ -> false
     | _ -> Sysx.read fd (Bytes.create 64) 0 64 = 0
     | exception Unix.Unix_error _ -> false
   in
   (try Unix.close fd with Unix.Unix_error _ -> ());
   if not eof then fail "daemon[slow-loris]: stalled conn not torn down";
   match request socket_path {|{"op":"health"}|} with
   | Some line -> (
       match Json.parse line with
       | exception _ -> fail "daemon[slow-loris]: unreadable health"
       | j -> (
           match
             Option.bind
               (Option.bind (Json.member "metrics" j) (Json.member "counters"))
               (Json.member "stalled_conns")
           with
           | Some (Json.Int k) when k >= 1 -> ()
           | _ -> fail "daemon[slow-loris]: stalled_conns not counted"))
   | None -> fail "daemon[slow-loris]: no health reply");
  (* drain and shut down *)
  ignore (request socket_path {|{"op":"drain"}|});
  Thread.join th;
  if !code <> 0 then fail "daemon: drain exit code %d, expected 0" !code;
  Incident_log.close incidents

(* ------------------------------------------------------------------ *)

let () =
  Sysx.ensure_dir !base_dir;
  let want name = !artifact = "all" || !artifact = name in
  List.iter
    (fun sc -> if want sc.name then run_scenario sc)
    scenarios;
  if want "ilog" then run_short_write ilog_append;
  if want "ckpt_append" then run_short_write ckpt_append;
  if want "carto" then run_short_write carto_ledger;
  if want "daemon" then
    if !loadgen <> "" && Sys.file_exists !loadgen then run_daemon_leg ()
    else print_endline "daemon leg skipped (no --loadgen executable)";
  let report =
    Json.Obj
      [
        ("points", Json.Int !points);
        ( "per_artifact",
          Json.Obj
            (List.map (fun (k, r) -> (k, Json.Int !r)) !per_artifact) );
        ("failures", Json.List (List.map (fun m -> Json.Str m) !failures));
      ]
  in
  let line = Json.to_string report in
  print_endline line;
  if !json_out <> "" then begin
    let oc = open_out !json_out in
    output_string oc (line ^ "\n");
    close_out oc
  end;
  match !failures with
  | [] ->
      Printf.printf "io_torture: %d fault points, all invariants held\n" !points
  | fs ->
      Printf.printf "io_torture: %d/%d fault points FAILED\n" (List.length fs)
        !points;
      exit 1
