(* carto-path8: Cartography.run of path8-max-sg — MAX Swap Game from a
   path on 8 vertices, every improving move, 11,195 states — with 1
   worker subprocess at a time ([chunk_size] states per chunk).  The
   seed relabels the initial path, which maps the region onto an
   isomorphic copy of the same size; the workers rebuild the spec from
   the seed.

   One worker, not two: the wave barrier waits for the slower worker,
   so on a 2-vCPU VM whose host steals CPU time two workers swung 0.42
   (IQR over median) across ten runs, and alternating runs read
   2,460-2,750 states/s with one worker against 2,690-4,030 with two.

   [setup_s] is the start-up latency until the supervisor commits its
   first wave: the recovery pass, the first worker spawn and the first
   lease, ledger and frontier writes.  [ops_per_s] counts the states
   explored after it. *)

open Common
module Carto = Ncg_search.Cartography
module Statespace = Ncg_search.Statespace

let spec seed =
  let base = Option.get (Carto.point_spec "path8-max-sg") in
  let n = Graph.n base.Carto.initial in
  let perm = Array.init n Fun.id in
  shuffle (Random.State.make [| seed; 0xca270 |]) perm;
  let edges =
    List.map (fun (u, v, _) -> (perm.(u), perm.(v))) (Graph.edges base.Carto.initial)
  in
  {
    base with
    Carto.tag = Printf.sprintf "path8-max-sg-s%d" seed;
    initial = Graph.of_edges n edges;
  }

(* Entry point of a worker subprocess:
   perfbench --carto-worker DIR WAVE CHUNK SEED *)
let worker_main argv =
  let dir = argv.(2) and wave = int_of_string argv.(3) in
  let chunk = int_of_string argv.(4) and seed = int_of_string argv.(5) in
  match
    Carto.worker ~dir ~wave ~chunk ~heartbeat_interval:1.0 (spec seed)
  with
  | Ok () -> exit 0
  | Error msg ->
      prerr_endline msg;
      exit 3

(* At the default 64 states per chunk a run waits mostly on worker
   spawns and ledger fsyncs, and its wall time swung 0.33 (IQR over
   median) across ten runs on a shared 2-vCPU VM; at 256 it still swung
   0.35 while the host stole CPU time, and alternating runs there read
   2,800-3,500 states/s at 256 against 3,800-4,200 at 1024.  At 1024 the
   supervisor protocol still runs 18 chunks over 9 waves per region:
   leases, worker spawns, ledger appends and frontier commits. *)
let chunk_size = 1024

let config o ~dir ~workers ~on_wave =
  let exe = Sys.executable_name in
  let spawn ~wave ~chunk =
    let log =
      Unix.openfile (Filename.concat o.out_dir "carto-workers.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let pid =
      Unix.create_process exe
        [|
          exe; "--carto-worker"; dir; string_of_int wave; string_of_int chunk;
          string_of_int o.seed;
        |]
        Unix.stdin log log
    in
    Unix.close log;
    pid
  in
  {
    (Carto.default_config ~dir) with
    Carto.chunk_size;
    workers;
    spawn = (if workers > 0 then Some spawn else None);
    on_wave = Some on_wave;
  }

(* One exploration in a fresh directory: report, wall time, and the
   time until the first wave committed. *)
let explore o ~workers =
  let dir = Filename.concat o.out_dir "carto" in
  rm_rf dir;
  let t0 = now () in
  let first = ref Float.nan in
  let on_wave ~wave:_ ~frontier:_ ~explored:_ =
    if Float.is_nan !first then first := now () -. t0
  in
  let rep = Carto.run (config o ~dir ~workers ~on_wave) (spec o.seed) in
  (rep, now () -. t0, !first)

let counters r (rep : Carto.report) =
  counter r "explored" rep.Carto.explored;
  counter r "arcs" rep.Carto.arcs;
  counter r "waves" rep.Carto.waves;
  counter r "stable" (List.length rep.Carto.stable);
  counter r "largest_scc" rep.Carto.largest_scc

(* The region must be complete and equal to the in-process
   [Statespace.explore] — explored count and sink set — and every
   exploration of the run must reproduce the same region fingerprint. *)
let reference o =
  let s = spec o.seed in
  Statespace.explore ~rule:s.Carto.rule s.Carto.model s.Carto.initial

let check_reports r o reps =
  let e = reference o in
  let stable = List.sort_uniq compare e.Statespace.stable in
  let fp = (List.hd reps).Carto.region_fingerprint in
  List.iter
    (fun (rep : Carto.report) ->
      let ok =
        (not rep.Carto.truncated)
        && rep.Carto.explored = e.Statespace.explored
        && List.map fst rep.Carto.stable = stable
        && rep.Carto.region_fingerprint = fp
        && rep.Carto.respawns = 0
      in
      attempt r ~ok;
      check r ok
        (Printf.sprintf
           "carto seed %d: region %s (%d states, truncated %b) differs from \
            Statespace.explore (%d states) or from the run's first region %s"
           o.seed rep.Carto.region_fingerprint rep.Carto.explored
           rep.Carto.truncated e.Statespace.explored fp))
    reps

(* The traced replay: the same breadth-first closure from public calls,
   with spans around successor enumeration — [Statespace.successor_moves]
   spelled out, so the [Response] calls inside it get spans of their own
   — move application and state keys. *)
let bfs ?tr s =
  let span name f = Span.wrap tr name f in
  let seen = Hashtbl.create 4096 in
  let key g = span "cartography.state_key" (fun () -> Carto.state_key s g) in
  let moves_of g u =
    match s.Carto.rule with
    | Statespace.All_improving -> Response.improving_moves s.Carto.model g u
    | Statespace.Best_responses -> Response.best_moves s.Carto.model g u
  in
  Hashtbl.replace seen (key s.Carto.initial) ();
  let arcs = ref 0 and waves = ref 0 in
  let frontier = ref [ s.Carto.initial ] in
  while !frontier <> [] do
    incr waves;
    let next = ref [] in
    List.iter
      (fun g ->
        let moves =
          span "statespace.successors" (fun () ->
              List.concat_map
                (fun u ->
                  List.map
                    (fun e -> e.Response.move)
                    (span "response.moves" (fun () -> moves_of g u)))
                (Graph.vertices g))
        in
        let succ = Hashtbl.create 16 in
        List.iter
          (fun mv ->
            let h = Graph.copy g in
            span "move.apply" (fun () -> ignore (Move.apply h mv));
            let k = key h in
            if not (Hashtbl.mem succ k) then begin
              Hashtbl.replace succ k ();
              incr arcs
            end;
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.replace seen k ();
              next := h :: !next
            end)
          moves)
      !frontier;
    frontier := List.rev !next
  done;
  (Hashtbl.length seen, !arcs, !waves)

(* The engine cross-check: best-response dynamics from the region's
   root under the max-cost policy with uniform ties, one run per seed.
   Every run that converges must end in a sink of the region, and the
   traced replay must retrace [Engine.run].  These runs are the carto
   traced run's engine layers. *)
let engine_trials = 64

let engine_check tr r o s (rep : Carto.report) =
  let sinks = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace sinks k ()) rep.Carto.stable;
  let model = s.Carto.model in
  let cfg =
    Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Uniform
      ~detect_cycles:true model
  in
  let rng i = Random.State.make [| o.seed; i; 0xe461e |] in
  let engine_s = ref 0.0 and traced_s = ref 0.0 in
  let runs =
    List.init engine_trials (fun i ->
        let e, dt = time (fun () -> Engine.run ~rng:(rng i) cfg s.Carto.initial) in
        engine_s := !engine_s +. dt;
        let p, dt =
          time (fun () ->
              Replay.run ~tr ~policy:Policy.Max_cost ~tie:Replay.Uniform
                ~max_steps:cfg.Engine.max_steps ~detect_cycles:true ~rng:(rng i)
                model s.Carto.initial)
        in
        traced_s := !traced_s +. dt;
        let in_region =
          match e.Engine.reason with
          | Engine.Converged ->
              Hashtbl.mem sinks (Statespace.state_key model e.Engine.final)
          | _ -> true
        in
        let ok = Replay.agrees p e && in_region in
        attempt r ~ok;
        check r ok
          (Printf.sprintf
             "carto seed %d engine run %d: %s" o.seed i
             (if in_region then "traced replay diverged from Engine.run"
              else "converged outside the region's sinks"));
        (e, p))
  in
  (runs, !traced_s, !engine_s)

let run_untraced o r =
  let rates = ref [] and firsts = ref [] and peak = ref Float.nan in
  let reps = ref [] in
  samples ~min:3 o (fun () ->
      reset_peak_rss ();
      let rep, dt, first = explore o ~workers:1 in
      (* a fixed unit of work: the heap's later growth steps depend on
         how many samples fit in the run *)
      if Float.is_nan !peak then peak := peak_rss_mib ();
      rates :=
        (float_of_int (rep.Carto.explored - 1) /. (dt -. first)) :: !rates;
      firsts := first :: !firsts;
      reps := rep :: !reps);
  metric r "setup_s" "s" (median !firsts);
  metric r "ops_per_s" "1/s" (median !rates);
  (* the supervisor's: the workers are separate short-lived processes *)
  metric r "peak_rss_mib" "MiB" !peak;
  check_reports r o !reps;
  counters r (List.hd !reps)

let run_traced o r =
  let s = spec o.seed in
  Gc.compact ();
  let rep2, t2, _ = explore o ~workers:1 in
  Gc.compact ();
  let rep1, t1, _ = explore o ~workers:0 in
  check_reports r o [ rep2; rep1 ];
  Gc.compact ();
  let (_ : int * int * int), untraced = time (fun () -> bfs s) in
  let tr = Span.create () in
  Gc.compact ();
  let (explored, arcs, waves), traced = time (fun () -> bfs ~tr s) in
  let runs, engine_traced, engine_s = engine_check tr r o s rep2 in
  let ok =
    explored = rep2.Carto.explored && arcs = rep2.Carto.arcs
    && waves = rep2.Carto.waves
  in
  attempt r ~ok;
  check r ok
    (Printf.sprintf
       "carto seed %d: traced replay found %d states, %d arcs, %d waves; \
        Cartography.run %d, %d, %d"
       o.seed explored arcs waves rep2.Carto.explored rep2.Carto.arcs
       rep2.Carto.waves);
  let c =
    {
      (Layers.of_replays runs) with
      Layers.explored = rep2.Carto.explored;
      arcs = rep2.Carto.arcs;
      waves = rep2.Carto.waves;
    }
  in
  let ns_per_edge = Layers.bfs_ns_per_edge (Layers.calib_graph o.seed) in
  Layers.emit r tr ~traced_s:(traced +. engine_traced)
    ~untraced_s:(untraced +. engine_s) ~ns_per_edge c;
  Layers.engine_details r tr c;
  detail r "statespace.successors_s" "s"
    (Span.self_time tr "statespace.successors");
  detail r "cartography.state_key_s" "s"
    (Span.self_time tr "cartography.state_key");
  detail r "cartography.supervise_s" "s" (t2 -. t1);
  counters r rep2;
  Span.write tr (Filename.concat o.out_dir "spans-carto-path8.tsv")

let run o r =
  if o.trace then run_traced o r else run_untraced o r;
  rm_rf (Filename.concat o.out_dir "carto")
