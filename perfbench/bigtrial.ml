(* bigtrial-n2000: one SUM-GBG max-cost trial at n = 2000, m = 4n,
   alpha = n/4 under a 64-table cache budget, bounded to [1 + k] steps.

   The first step refreshes every agent's cost-board key under the
   budget (about n fills and evictions) — that is set-up a user waits
   through, so it is timed separately; [ops_per_s] counts the [k]
   steps after it. *)

open Common

let n = 2000
let budget = 64
let k = 6

(* budget plus the endpoint pins a move holds across its apply *)
let pin_slack = 8

let model =
  Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n

(* the kernel calibration graph of every workload is this start graph *)
let instance o = Layers.calib_graph o.seed
let engine_rng o = Random.State.make [| o.seed; n; 2 |]

let cfg ?(budgeted = true) steps =
  if budgeted then Engine.config ~cache_budget:budget ~max_steps:steps model
  else Engine.config ~max_steps:steps model

let run_engine ?budgeted o g steps =
  Engine.run ~rng:(engine_rng o) (cfg ?budgeted steps) g

let counters r (e : Engine.result) =
  let c = e.Engine.cache in
  counter r "steps" e.Engine.steps;
  counter r "kept" c.Distcache.kept;
  counter r "repaired" c.Distcache.repaired;
  counter r "rebuilt" c.Distcache.rebuilt;
  counter r "fills" c.Distcache.fills;
  counter r "evicted" c.Distcache.evicted;
  counter r "peak_tables" e.Engine.residency.Distcache.peak

(* The budgeted trajectory must equal an unbudgeted run of the same
   steps, and residency must stay within budget plus pin slack. *)
let check_trial r o g (e : Engine.result) =
  let peak = e.Engine.residency.Distcache.peak in
  let full = run_engine ~budgeted:false o g (1 + k) in
  let moves (x : Engine.result) =
    List.map (fun (s : Engine.step) -> s.Engine.move) x.Engine.history
  in
  let same =
    e.Engine.steps = 1 + k
    && full.Engine.steps = e.Engine.steps
    && List.equal Move.equal (moves full) (moves e)
    && Canonical.key full.Engine.final = Canonical.key e.Engine.final
  in
  check r same
    (Printf.sprintf "bigtrial seed %d: budgeted trajectory differs from the \
                     unbudgeted run" o.seed);
  check r (peak <= budget + pin_slack)
    (Printf.sprintf "bigtrial seed %d: peak residency %d tables > %d + %d"
       o.seed peak budget pin_slack);
  same && peak <= budget + pin_slack

(* Each sample pairs a set-up (generation plus the first step) with a
   bounded run on the same instance, so the first-step time it
   subtracts was measured seconds before, on the same machine state. *)
let run_untraced o r =
  let setups = ref [] and rates = ref [] and peak = ref Float.nan in
  let results = ref [] and graph = ref None in
  let setup () =
    Gc.compact ();
    let t0 = now () in
    let g = instance o in
    let (_ : Engine.result), first = time (fun () -> run_engine o g 1) in
    setups := (now () -. t0) :: !setups;
    (g, first)
  in
  ignore (setup ());
  samples ~min:2 o (fun () ->
      let g, first = setup () in
      reset_peak_rss ();
      let e, dt = time (fun () -> run_engine o g (1 + k)) in
      (* a fixed unit of work: the heap's later growth steps depend on
         how many samples fit in the run *)
      if Float.is_nan !peak then peak := peak_rss_mib ();
      rates := (float_of_int k /. (dt -. first)) :: !rates;
      results := e :: !results;
      graph := Some g);
  metric r "setup_s" "s" (median !setups);
  metric r "ops_per_s" "1/s" (median !rates);
  metric r "peak_rss_mib" "MiB" !peak;
  let g = Option.get !graph in
  let e = List.hd !results in
  let ok = check_trial r o g e in
  List.iter
    (fun (x : Engine.result) ->
      let same =
        ok && x.Engine.cache = e.Engine.cache
        && x.Engine.residency = e.Engine.residency
        && Canonical.key x.Engine.final = Canonical.key e.Engine.final
      in
      attempt r ~ok:same;
      check r same
        (Printf.sprintf "bigtrial seed %d: repeated run not bit-identical"
           o.seed))
    !results;
  counters r e

let run_traced o r =
  let g = instance o in
  let tr = Span.create () in
  Gc.compact ();
  let e, engine_s = time (fun () -> run_engine o g (1 + k)) in
  Gc.compact ();
  let p, traced_s =
    time (fun () ->
        Replay.run ~tr ~policy:Policy.Max_cost ~tie:Replay.Uniform
          ~max_steps:(1 + k) ~detect_cycles:false ~budget ~rng:(engine_rng o)
          model g)
  in
  let agree = Replay.agrees p e in
  check r agree
    (Printf.sprintf "bigtrial seed %d: traced replay diverged" o.seed);
  attempt r ~ok:(agree && check_trial r o g e);
  let c = Layers.of_replays [ (e, p) ] in
  let ns_per_edge = Layers.bfs_ns_per_edge g in
  Layers.emit r tr ~traced_s ~untraced_s:engine_s ~ns_per_edge c;
  Layers.engine_details r tr c;
  (* the computed BFS share of the untraced trial: fills x 2m entries at
     the calibrated cost *)
  let edges = c.Layers.cache.Distcache.fills * 2 * Graph.m g in
  detail r "paths.bfs_edges_computed" "count" (float_of_int edges);
  detail r "paths.bfs_share" "frac"
    (float_of_int edges *. ns_per_edge *. 1e-9 /. engine_s);
  counters r e;
  Span.write tr (Filename.concat o.out_dir "spans-bigtrial-n2000.tsv")

let run o r = if o.trace then run_traced o r else run_untraced o r
