module Q = Ncg_rational.Q

type point = { key : string; spec : Runner.spec }

let point_names = [ "fig7"; "fig8"; "fig11"; "fig13" ]

(* One representative configuration per figure family, pinned so the
   supervisor, its workers, and any out-of-process verifier (chaos soak,
   bench) all reconstruct the exact same Runner.spec from the command
   name and n alone. *)
let point_spec cmd ~n =
  match cmd with
  | "fig7" | "fig8" ->
      let dist = if cmd = "fig7" then Model.Sum else Model.Max in
      let model = Model.make Model.Asg dist n in
      Some
        {
          key = Printf.sprintf "fleet-%s|n=%d" cmd n;
          spec =
            Runner.spec ~policy:Policy.Max_cost model (fun rng ->
                Gen.random_budget_network rng n 2);
        }
  | "fig11" | "fig13" ->
      let dist = if cmd = "fig11" then Model.Sum else Model.Max in
      let m = min (4 * n) (n * (n - 1) / 2) in
      let model = Model.make ~alpha:(Q.make n 4) Model.Gbg dist n in
      Some
        {
          key = Printf.sprintf "fleet-%s|n=%d" cmd n;
          spec =
            Runner.spec ~policy:Policy.Max_cost
              ~tie_break:Engine.Prefer_deletion model (fun rng ->
                Gen.random_m_edges rng n m);
        }
  | _ -> None

let fingerprint ~cmd ~n ~trials ~seed =
  Printf.sprintf "fleet %s n=%d trials=%d seed=%d" cmd n trials seed

let shard_checkpoint ~dir ~shard =
  Filename.concat dir (Printf.sprintf "shard-%04d.ck" shard)

let plan ~trials ~shards =
  if trials < 1 then invalid_arg "Fleet.plan: trials < 1";
  let shards = max 1 (min shards trials) in
  Array.init shards (fun s ->
      (s * trials / shards, (s + 1) * trials / shards))

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

exception Lease_lost of string

let worker ~dir ~fingerprint ~shard ~key ~seed ~trials ~heartbeat_interval
    ?incidents spec =
  let me = Unix.getpid () in
  match Lease.load ~dir ~fingerprint ~shard with
  | Error e -> Error (Printf.sprintf "lease load: %s" e)
  | Ok lease when lease.Lease.status <> Lease.Running ->
      Error
        (Printf.sprintf "lease is %s, not running"
           (Lease.status_label lease.Lease.status))
  | Ok lease -> (
      (* Claim: record our PID so the supervisor (and the chaos harness)
         can find us; from here on we only keep the lease while we still
         own it. *)
      Lease.save ~dir ~fingerprint
        { lease with Lease.owner = me; heartbeat = Clock.monotonic () };
      let last_beat = ref (Clock.monotonic ()) in
      let beat () =
        let now = Clock.monotonic () in
        if now -. !last_beat >= heartbeat_interval then
          match Lease.load ~dir ~fingerprint ~shard with
          | Ok l
            when l.Lease.status = Lease.Running
                 && (l.Lease.owner = me || l.Lease.owner = 0) ->
              Lease.save ~dir ~fingerprint
                { l with Lease.owner = me; heartbeat = now };
              last_beat := now
          | Ok _ -> raise (Lease_lost "lease reassigned under us")
          | Error e -> raise (Lease_lost ("lease unreadable: " ^ e))
      in
      let ck = shard_checkpoint ~dir ~shard in
      (* A predecessor may have died mid-shard: resume its checkpoint so
         surviving trials are loaded, not rerun (a fresh open_ would
         truncate them). *)
      let cp =
        Checkpoint.open_ ~resume:(Sys.file_exists ck) ?incidents ~fingerprint
          ck
      in
      match
        Fun.protect
          ~finally:(fun () -> Checkpoint.close cp)
          (fun () ->
            Runner.run_outcomes ~domains:1 ~seed ~checkpoint:cp ~key
              ?incidents
              ~range:(lease.Lease.lo, lease.Lease.hi)
              ~on_batch:beat ~trials spec)
      with
      | _outcomes -> (
          match Lease.load ~dir ~fingerprint ~shard with
          | Ok l when l.Lease.owner = me || l.Lease.owner = 0 ->
              Lease.save ~dir ~fingerprint
                {
                  l with
                  Lease.status = Lease.Done;
                  owner = me;
                  heartbeat = Clock.monotonic ();
                };
              Ok ()
          | Ok _ -> Error "lease reassigned before completion"
          | Error e -> Error ("lease unreadable at completion: " ^ e))
      | exception Lease_lost why -> Error why)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  dir : string;
  fingerprint : string;
  key : string;
  seed : int;
  trials : int;
  shards : int;
  workers : int;
  heartbeat_timeout : float;
  poll_interval : float;
  max_respawns : int;
  spawn : shard:int -> int;
  incidents : Incident_log.t option;
}

type report = {
  summary : Stats.summary;
  outcomes : (int * Stats.outcome) list;
  missing : int list;
  respawns : int;
  quarantined : int list;
  shard_reports : (int * Checkpoint.load_report) list;
  cross_duplicates : int;
}

let merge cfg ~nshards =
  let paths =
    List.init nshards (fun s -> (s, shard_checkpoint ~dir:cfg.dir ~shard:s))
  in
  let m =
    Checkpoint.merge_shards ~fingerprint:cfg.fingerprint (List.map snd paths)
  in
  let by_trial = Hashtbl.create (2 * cfg.trials) in
  List.iter
    (fun ((key, trial), outcome) ->
      if key = cfg.key && trial >= 0 && trial < cfg.trials then
        Hashtbl.replace by_trial trial outcome)
    m.Checkpoint.merged;
  let outcomes = ref [] and missing = ref [] in
  for trial = cfg.trials - 1 downto 0 do
    match Hashtbl.find_opt by_trial trial with
    | Some o -> outcomes := (trial, o) :: !outcomes
    | None -> missing := trial :: !missing
  done;
  let shard_reports =
    List.filter_map
      (fun (s, path) ->
        Option.map (fun r -> (s, r)) (List.assoc_opt path m.Checkpoint.shard_reports))
      paths
  in
  (!outcomes, !missing, shard_reports, m.Checkpoint.cross_duplicates)

let supervise cfg =
  if cfg.workers < 1 then invalid_arg "Fleet.supervise: workers < 1";
  Sysx.ensure_dir cfg.dir;
  (* takeover hygiene: previous fleets' SIGKILLed writers may have left
     pid-unique lease temp files behind *)
  ignore (Lease.sweep_stale ~dir:cfg.dir ?incidents:cfg.incidents ());
  let ranges = plan ~trials:cfg.trials ~shards:cfg.shards in
  let nshards = Array.length ranges in
  let incident e =
    match cfg.incidents with
    | None -> ()
    | Some log -> Incident_log.record log e
  in
  let load s = Lease.load ~dir:cfg.dir ~fingerprint:cfg.fingerprint ~shard:s in
  let save l = Lease.save ~dir:cfg.dir ~fingerprint:cfg.fingerprint l in
  let fresh s =
    let lo, hi = ranges.(s) in
    {
      Lease.shard = s;
      lo;
      hi;
      status = Lease.Pending;
      owner = 0;
      heartbeat = 0.0;
      attempts = 0;
    }
  in
  (* Reconcile existing leases (a previous fleet of the same fingerprint
     may have died here): Done shards with the same plan are kept and
     merged without rerunning; anything else starts over as Pending. *)
  let pending = Queue.create () in
  let completed = ref 0 in
  for s = 0 to nshards - 1 do
    let lo, hi = ranges.(s) in
    match load s with
    | Ok l
      when l.Lease.lo = lo && l.Lease.hi = hi && l.Lease.status = Lease.Done
      ->
        incr completed
    | _ ->
        save (fresh s);
        Queue.add s pending
  done;
  let running : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let respawns = ref 0 and quarantined = ref [] in
  let spawn_shard s =
    (match load s with
    | Ok l ->
        save
          {
            l with
            Lease.status = Lease.Running;
            owner = 0;
            heartbeat = Clock.monotonic ();
            attempts = l.Lease.attempts + 1;
          }
    | Error _ ->
        save
          {
            (fresh s) with
            Lease.status = Lease.Running;
            heartbeat = Clock.monotonic ();
            attempts = 1;
          });
    let pid = cfg.spawn ~shard:s in
    Hashtbl.replace running s pid
  in
  let fail_shard s pid cause =
    Hashtbl.remove running s;
    let lo, hi = ranges.(s) in
    incident (Incident_log.Worker_dead { shard = s; pid; cause; lo; hi });
    let l = match load s with Ok l -> l | Error _ -> fresh s in
    if l.Lease.attempts > cfg.max_respawns then begin
      save { l with Lease.status = Lease.Quarantined; owner = 0 };
      quarantined := s :: !quarantined;
      incident
        (Incident_log.Shard_quarantined
           { shard = s; lo; hi; attempts = l.Lease.attempts })
    end
    else begin
      save { l with Lease.status = Lease.Pending; owner = 0 };
      incr respawns;
      incident (Incident_log.Reassigned { shard = s; attempt = l.Lease.attempts });
      Queue.add s pending
    end
  in
  let reap_all signal =
    Hashtbl.iter (fun _ pid -> Sysx.kill pid signal) running;
    Hashtbl.iter (fun _ pid -> Sysx.reap pid) running
  in
  while (not (Queue.is_empty pending)) || Hashtbl.length running > 0 do
    if Runner.stop_requested () then begin
      reap_all Sys.sigterm;
      raise Runner.Interrupted
    end;
    while
      (not (Queue.is_empty pending)) && Hashtbl.length running < cfg.workers
    do
      spawn_shard (Queue.pop pending)
    done;
    Sysx.sleepf cfg.poll_interval;
    let now = Clock.monotonic () in
    let events =
      Hashtbl.fold
        (fun s pid acc ->
          match Sysx.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> (
              (* alive as far as the kernel knows; check the heartbeat *)
              match load s with
              | Ok l when Lease.expired ~now ~timeout:cfg.heartbeat_timeout l
                ->
                  `Stalled (s, pid) :: acc
              | _ -> acc)
          | _, Unix.WEXITED 0 -> `Exited_ok (s, pid) :: acc
          | _, Unix.WEXITED c -> `Died (s, pid, Printf.sprintf "exited %d" c) :: acc
          | _, Unix.WSIGNALED sg ->
              `Died (s, pid, "killed by " ^ Sysx.signal_name sg) :: acc
          | _, Unix.WSTOPPED _ -> acc
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              (* reaped elsewhere: only possible if the child is gone *)
              `Died (s, pid, "waitpid: no such child") :: acc)
        running []
    in
    List.iter
      (function
        | `Stalled (s, pid) ->
            (* missed-heartbeat detection: the worker is hung or starved;
               kill it so the reassigned shard cannot be double-run *)
            Sysx.kill pid Sys.sigkill;
            Sysx.reap pid;
            fail_shard s pid "heartbeat expired"
        | `Exited_ok (s, pid) -> (
            (* exit 0 only counts with a Done lease — a worker that lost
               its lease exits cleanly without finishing the shard *)
            match load s with
            | Ok l when l.Lease.status = Lease.Done ->
                Hashtbl.remove running s;
                incr completed
            | _ -> fail_shard s pid "exited 0 without completing its lease")
        | `Died (s, pid, cause) -> fail_shard s pid cause)
      events
  done;
  let outcomes, missing, shard_reports, cross_duplicates =
    merge cfg ~nshards
  in
  {
    summary = Stats.summarize_outcomes (List.map snd outcomes);
    outcomes;
    missing;
    respawns = !respawns;
    quarantined = List.sort compare !quarantined;
    shard_reports;
    cross_duplicates;
  }
