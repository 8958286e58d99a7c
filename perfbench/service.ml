(* service: the ncg_serve daemon with 1 worker, driven closed-loop over
   2 connections from this one process.  Each connection sends its next
   job only after the previous one has its final outcome, so the two
   connections' computed jobs queue for the one worker.  One worker, not
   two: on a 2-vCPU VM whose host steals CPU time, the daemon, two busy
   workers and this client measure the scheduler — daemon start-up swung
   0.6 (IQR over median) across ten runs, and in alternating runs it read
   7-10 ms with one worker against 13-24 ms with two.

   Jobs are SUM-GBG on n = 40 hosts, 8 trials each.  A round gives each
   connection its own pool of [pool] random hosts and submits every host
   [repeats] times in a seeded order, each time under a fresh random
   relabeling — repeats are isomorphic, not textually identical, so only
   the daemon's canonical keys can match them.  The pools of the two
   connections are disjoint and the loop is closed, so which submissions
   hit the result cache is a pure function of the seed: the first
   submission of a host is computed, every later one is a hit. *)

open Common
module Proto = Ncg_service.Proto

let n = 40
let trials = 8
let pool = 8
let repeats = 5
let conns = 2
let workers = 1

type job = {
  tag : int;
  pool : int;  (* one per round and connection *)
  host : int;  (* index in the pool *)
  frame : string;
  edges : (int * int) list;  (* the relabeled host as submitted *)
  fresh : bool;  (* first submission of its host: must be computed *)
}

type record = {
  job : job;
  sent : float;
  mutable ack : float;
  mutable finished : float;
  mutable cached : bool option;
  mutable summary : string;
  mutable status : string;
  mutable terminals : int;
}

let host_edges o ~round ~conn ~host =
  let rng = Random.State.make [| o.seed; round; conn; host; 0x5e7 |] in
  List.map (fun (u, v, _) -> (u, v)) (Graph.edges (Gen.random_connected rng n 0.25))

let relabel rng edges =
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  List.map (fun (u, v) -> (perm.(u), perm.(v))) edges

let frame ~tag ~seed edges =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "submit");
         ("tag", Json.Int tag);
         ("game", Json.Str "gbg");
         ("dist", Json.Str "sum");
         ("alpha", Json.Str (string_of_int (n / 4)));
         ("policy", Json.Str "max_cost");
         ("tie_break", Json.Str "prefer_deletion");
         ("n", Json.Int n);
         ( "host",
           Json.List
             (List.map (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ]) edges)
         );
         ("seed", Json.Int seed);
         ("trials", Json.Int trials);
         ("edge_prob", Json.Float 0.1);
       ])

(* One connection's job list for one round. *)
let jobs o ~round ~conn =
  let hosts = Array.init pool (fun host -> host_edges o ~round ~conn ~host) in
  let rng = Random.State.make [| o.seed; round; conn; 0x0de |] in
  let order = Array.init (pool * repeats) (fun i -> i mod pool) in
  shuffle rng order;
  let seen = Array.make pool false in
  Array.to_list
    (Array.mapi
       (fun i host ->
         let pool_id = (round * conns) + conn in
         let tag = (pool_id * 1000) + i in
         let edges = relabel rng hosts.(host) in
         let fresh = not seen.(host) in
         seen.(host) <- true;
         let seed = (o.seed * 7919) + (pool_id * pool) + host in
         { tag; pool = pool_id; host; frame = frame ~tag ~seed edges; edges; fresh })
       order)

(* ---- wire --------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; buf = Buffer.create 4096 }
  | exception e ->
      Unix.close fd;
      raise e

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Complete lines buffered on [c]; reads once if [fill]. *)
let lines ?(fill = true) c =
  if fill then begin
    let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if k = 0 then failwith "daemon closed the connection";
    Buffer.add_subbytes c.buf chunk 0 k
  end;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      String.split_on_char '\n' (String.sub s 0 i)

let request sock line =
  let c = connect sock in
  Fun.protect
    ~finally:(fun () -> Unix.close c.fd)
    (fun () ->
      send c line;
      let rec wait () = match lines c with l :: _ -> l | [] -> wait () in
      Json.parse (wait ()))

let health sock = request sock {|{"op":"health"}|}

(* ---- daemon lifecycle --------------------------------------------- *)

type daemon = { pid : int; sock : string; worker_pids : int list }

let worker_pids h =
  match Option.bind (Json.member "workers" h) Json.to_list with
  | None -> []
  | Some ws ->
      List.filter_map
        (fun w ->
          match
            ( Option.bind (Json.member "alive" w) Json.to_bool,
              Option.bind (Json.member "pid" w) Json.to_int )
          with
          | Some true, Some pid when pid > 0 -> Some pid
          | _ -> None)
        ws

(* From spawn until a health reply shows every worker live. *)
let spawn o i =
  let sock = Printf.sprintf "svc/d%d.sock" i in
  let log =
    Unix.openfile (Printf.sprintf "svc/d%d.log" i)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process o.serve_exe
      [|
        o.serve_exe; "--socket"; sock; "--lease-dir"; Printf.sprintf "svc/l%d" i;
        "--workers"; string_of_int workers;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match health sock with
    | h when List.length (worker_pids h) = workers ->
        { pid; sock; worker_pids = worker_pids h }
    | _ | (exception (Unix.Unix_error _ | Failure _ | Json.Parse_error _)) ->
        if now () > deadline then failwith "daemon did not come up";
        Unix.sleepf 0.0005;
        wait ()
  in
  wait ()

let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* Protocol drain, then reap; SIGKILL only as a backstop. *)
let stop d =
  (try ignore (request d.sock {|{"op":"drain"}|})
   with Unix.Unix_error _ | Failure _ | Json.Parse_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = reap () in
  List.iter (fun p -> if alive p then Unix.kill p Sys.sigkill) d.worker_pids;
  clean && not (List.exists alive d.worker_pids)

(* ---- closed loop -------------------------------------------------- *)

(* Runs one round: both connections, closed loop, until every job has
   its terminal outcome.  Returns the records in submission order. *)
let round cs (queues : job list array) =
  let pending = Array.map (fun _ -> None) cs in
  let records = ref [] in
  let queues = Array.copy queues in
  let submit i =
    match queues.(i) with
    | [] -> pending.(i) <- None
    | j :: rest ->
        queues.(i) <- rest;
        let r =
          {
            job = j;
            sent = now ();
            ack = Float.nan;
            finished = Float.nan;
            cached = None;
            summary = "";
            status = "";
            terminals = 0;
          }
        in
        records := r :: !records;
        pending.(i) <- Some r;
        send cs.(i) j.frame
  in
  Array.iteri (fun i _ -> submit i) cs;
  let handle i line =
    let j = Json.parse line in
    let str k = Option.bind (Json.member k j) Json.to_str in
    let tag = Option.bind (Json.member "tag" j) Json.to_int in
    match pending.(i) with
    | Some r when tag = Some r.job.tag -> (
        match (str "type", str "status") with
        | Some "ack", _ -> r.ack <- now ()
        | Some "incident", _ -> ()
        | Some "outcome", Some status ->
            r.finished <- now ();
            r.status <- status;
            r.terminals <- r.terminals + 1;
            r.cached <- Option.bind (Json.member "cached" j) Json.to_bool;
            r.summary <-
              (match Json.member "summary" j with
              | Some s -> Json.to_string s
              | None -> "");
            submit i
        | _ ->
            r.finished <- now ();
            r.status <- "error";
            r.terminals <- r.terminals + 1;
            submit i)
    | _ -> (
        (* a line for a job already resolved: a duplicate terminal *)
        match List.find_opt (fun r -> Some r.job.tag = tag) !records with
        | Some r -> r.terminals <- r.terminals + 1
        | None -> failwith ("unexpected reply: " ^ line))
  in
  let busy () = Array.exists Option.is_some pending in
  while busy () do
    let fds =
      List.filter_map
        (fun i -> if pending.(i) <> None then Some cs.(i).fd else None)
        (List.init (Array.length cs) Fun.id)
    in
    match Unix.select fds [] [] 60.0 with
    | [], _, _ -> failwith "no reply from the daemon for 60 s"
    | ready, _, _ ->
        Array.iteri
          (fun i c ->
            if List.mem c.fd ready then List.iter (handle i) (lines c))
          cs
  done;
  List.rev !records

(* Exactly one [completed] outcome per job, the expected cache verdict,
   and every cached summary equal to its host's computed one. *)
let check_round r ~round records =
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun x ->
      if x.job.fresh then Hashtbl.replace fresh (x.job.pool, x.job.host) x.summary)
    records;
  List.iter
    (fun x ->
      let computed = Hashtbl.find_opt fresh (x.job.pool, x.job.host) in
      let ok =
        x.terminals = 1 && x.status = "completed"
        && x.cached = Some (not x.job.fresh)
        && x.summary <> ""
        && computed = Some x.summary
      in
      attempt r ~ok;
      if not ok then
        fail r
          (Printf.sprintf
             "service round %d job %d: status %S, %d terminal outcomes, cached \
              %s (expected %b), summary %s"
             round x.job.tag x.status x.terminals
             (match x.cached with Some b -> string_of_bool b | None -> "-")
             (not x.job.fresh)
             (if computed = Some x.summary then "matches" else "differs")))
    records

(* Jobs per second of a round: each connection's jobs over the time to
   its own last outcome, summed.  The round barrier is the benchmark's
   (it fixes the hit pattern), so the faster connection's wait at it is
   not the service's time. *)
let round_rate ~t0 records =
  List.fold_left
    (fun acc conn ->
      let mine = List.filter (fun x -> x.job.pool mod conns = conn) records in
      let last = List.fold_left (fun m x -> Float.max m x.finished) t0 mine in
      acc +. (float_of_int (List.length mine) /. (last -. t0)))
    0.0
    (List.init conns Fun.id)

(* The service's memory: the daemon's and its workers' peaks. *)
let service_rss d =
  List.fold_left
    (fun acc pid -> acc +. peak_rss_mib ~pid:(string_of_int pid) ())
    0.0 (d.pid :: d.worker_pids)

let min_rounds = 4
let setups_n = 7

let int_at path j =
  let rec go j = function
    | [] -> Json.to_int j
    | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
  in
  Option.value ~default:(-1) (go j path)

(* Round 0 is the same work in every run of a seed, so its cache
   verdicts and the workers' cache decisions after it are deterministic. *)
let round0_counters r d records =
  let h = health d.sock in
  let computed = List.filter (fun x -> x.job.fresh) records in
  counter r "round0.jobs" (List.length records);
  counter r "round0.computed" (List.length computed);
  let hits = int_at [ "cache"; "hits" ] h in
  let misses = int_at [ "cache"; "misses" ] h in
  counter r "round0.cache_hits" hits;
  counter r "round0.cache_misses" misses;
  List.iter
    (fun k -> counter r ("round0.worker_" ^ k) (int_at [ "batch"; k ] h))
    [ "batched_trials"; "kept"; "repaired"; "rebuilt"; "fills"; "evicted" ];
  (* in tag order: the two connections interleave by timing *)
  let summaries =
    List.sort compare (List.map (fun x -> (x.job.tag, x.summary)) computed)
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map (fun (t, s) -> Printf.sprintf "%d %s" t s) summaries)))
  in
  counter r "round0.summary_digest" (int_of_string ("0x" ^ String.sub digest 0 12));
  (hits, misses)

(* The daemon's compute path, replayed in this process: every computed
   job of round 0 decoded from its own frame, its trials generated as
   the worker generates them ([Daemon.run_job]: the Runner derivation
   from (seed, trial, n) inside the host's canonical normal form, which
   admission substitutes for the submitted host), each run untraced through
   [Engine.run] and traced through the replay.  The replay must agree
   with the engine on every trial, and the engine's summary must equal
   the one the daemon returned. *)
let replay_jobs r tr records =
  let engine_s = ref 0.0 and traced_s = ref 0.0 in
  let jobs =
    List.sort
      (fun a b -> compare a.job.tag b.job.tag)
      (List.filter (fun x -> x.job.fresh && x.job.pool < conns) records)
  in
  let runs =
    List.concat_map
      (fun x ->
        match Proto.job_of_json (Json.parse x.job.frame) with
        | Error msg ->
            fail r (Printf.sprintf "service job %d: %s" x.job.tag msg);
            []
        | Ok job ->
            (* the daemon runs every job on its host's normal form *)
            let h =
              Graph.of_unowned_edges n
                (List.map
                   (fun (u, v, _) -> (u, v))
                   (Graph.edges
                      (Canonical.normal_form ~respect_ownership:false
                         (Graph.of_unowned_edges n x.job.edges))))
            in
            let model =
              Model.make ~alpha:job.Proto.alpha ~host:(Host.of_graph h)
                job.Proto.game job.Proto.dist n
            in
            let cfg =
              Engine.config ~policy:job.Proto.policy
                ~tie_break:job.Proto.tie_break ~detect_cycles:true
                ~record_history:false ?max_steps:job.Proto.max_steps model
            in
            let tie =
              match job.Proto.tie_break with
              | Engine.Prefer_deletion -> Replay.Prefer_deletion
              | Engine.Uniform -> Replay.Uniform
              | Engine.First_candidate ->
                  invalid_arg "the replay has no first-candidate tie-break"
            in
            let trial_pair trial =
              let rng = Random.State.make [| job.Proto.seed; trial; n |] in
              (rng, Gen.random_host_network rng h job.Proto.edge_prob)
            in
            let runs =
              List.init job.Proto.trials (fun trial ->
                  let rng, g = trial_pair trial in
                  let e, dt = time (fun () -> Engine.run ~rng cfg g) in
                  engine_s := !engine_s +. dt;
                  let rng, g = trial_pair trial in
                  let p, dt =
                    time (fun () ->
                        Replay.run ~tr ~policy:job.Proto.policy ~tie
                          ~max_steps:cfg.Engine.max_steps ~detect_cycles:true
                          ~rng model g)
                  in
                  traced_s := !traced_s +. dt;
                  (e, p))
            in
            let agree = List.for_all (fun (e, p) -> Replay.agrees p e) runs in
            let summary =
              Json.to_string
                (Proto.summary_to_json
                   (Stats.summarize_outcomes
                      (List.map (fun (e, _) -> Stats.outcome_of_result e) runs)))
            in
            let ok = agree && summary = x.summary in
            attempt r ~ok;
            check r ok
              (Printf.sprintf
                 "service job %d: %s" x.job.tag
                 (if agree then "in-process summary differs from the daemon's"
                  else "traced replay diverged from Engine.run"));
            runs)
      jobs
  in
  (runs, !traced_s, !engine_s)

let run o r =
  (* socket paths are relative to the run directory: a Unix socket
     path must fit in 108 bytes wherever the checkout lives *)
  let serve_exe =
    if Filename.is_relative o.serve_exe then
      Filename.concat (Sys.getcwd ()) o.serve_exe
    else o.serve_exe
  in
  let o = { o with serve_exe } in
  Sys.chdir o.out_dir;
  rm_rf "svc";
  Unix.mkdir "svc" 0o755;
  (* set-up samples: spawn a daemon until its worker is live.  The
     measured daemon is the first; the spares are spawned and drained
     two after each round, so the median spans the whole run *)
  let spare i =
    let x, dt = time (fun () -> spawn o i) in
    check r (stop x) "service: daemon did not drain cleanly";
    dt
  in
  let d, dt = time (fun () -> spawn o 0) in
  let setups = ref [ dt ] in
  let cs = Array.init conns (fun _ -> connect d.sock) in
  let rates = ref [] in
  let all = ref [] and round0 = ref [] and verdicts = ref (0, 0) in
  let rss = ref Float.nan in
  let rnd = ref 0 in
  (* at least [min_rounds] x 16 computed jobs, so the p80 latency has
     more than ten samples beyond it *)
  samples ~min:min_rounds o (fun () ->
      let qs = Array.init conns (fun conn -> jobs o ~round:!rnd ~conn) in
      let t0 = now () in
      let records = round cs qs in
      check_round r ~round:!rnd records;
      rates := round_rate ~t0 records :: !rates;
      all := records @ !all;
      if !rnd = 0 then begin
        round0 := records;
        verdicts := round0_counters r d records;
        rss := service_rss d
      end;
      for _ = 1 to 2 do
        let i = List.length !setups in
        if i < setups_n then setups := spare i :: !setups
      done;
      incr rnd);
  let h = health d.sock in
  Array.iter (fun c -> Unix.close c.fd) cs;
  check r (stop d) "service: daemon did not drain cleanly";
  let computed = List.filter (fun x -> x.job.fresh) !all in
  let hits = List.filter (fun x -> not x.job.fresh) !all in
  if not o.trace then begin
    metric r "setup_s" "s" (median !setups);
    metric r "ops_per_s" "1/s" (median !rates);
    metric r "peak_rss_mib" "MiB" !rss;
    let l = List.map (fun x -> x.finished -. x.sent) computed in
    detail r "latency_p50_s" "s" (quantile l 0.5);
    detail r "latency_p80_s" "s" (quantile l 0.8)
  end
  else begin
    let tr = Span.create () in
    Gc.compact ();
    let runs, traced_s, engine_s = replay_jobs r tr !round0 in
    let cache_hits, cache_misses = !verdicts in
    let c = { (Layers.of_replays runs) with Layers.cache_hits; cache_misses } in
    let ns_per_edge = Layers.bfs_ns_per_edge (Layers.calib_graph o.seed) in
    Layers.emit r tr ~traced_s ~untraced_s:engine_s ~ns_per_edge c;
    Layers.engine_details r tr c;
    (* the daemon's layers as one client sees them *)
    let span f xs = median (List.map f xs) in
    detail r "daemon.ack_s" "s" (span (fun x -> x.ack -. x.sent) !all);
    detail r "daemon.hit_rtt_s" "s" (span (fun x -> x.finished -. x.sent) hits);
    detail r "daemon.compute_s" "s"
      (span (fun x -> x.finished -. x.ack) computed);
    let hits_n = int_at [ "cache"; "hits" ] h in
    let misses_n = int_at [ "cache"; "misses" ] h in
    detail r "cache.hit_ratio" "frac"
      (float_of_int hits_n /. float_of_int (max 1 (hits_n + misses_n)));
    List.iter
      (fun k ->
        detail r ("worker." ^ k) "count" (float_of_int (int_at [ "batch"; k ] h)))
      [ "fills"; "kept"; "repaired" ];
    (* decode and canonical-key cost on this run's own frames and hosts *)
    let decoded, dt =
      time (fun () ->
          List.map (fun x -> Proto.job_of_json (Json.parse x.job.frame)) !all)
    in
    check r
      (List.for_all Result.is_ok decoded)
      "service: a submitted frame does not decode";
    detail r "proto.decode_s" "s" (dt /. float_of_int (List.length !all));
    let (), dt =
      time (fun () ->
          List.iter
            (fun x ->
              ignore
                (Canonical.iso_key ~respect_ownership:false
                   (Graph.of_unowned_edges n x.job.edges)))
            !all)
    in
    detail r "canonical.iso_key_s" "s" (dt /. float_of_int (List.length !all));
    Span.write tr "spans-service.tsv"
  end
