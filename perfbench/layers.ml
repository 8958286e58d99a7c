(* The per-layer result: one set of metrics that every workload reports
   from its traced run, plus each workload's finer layer split as
   detail lines.

   Every workload's traced run replays engine steps ([Replay]), so the
   result line carries the engine's module split — self time in
   [Costboard], [Policy], [Response], [Distcache] and [Move], the
   unattributed rest, the cost of tracing and a BFS kernel calibration —
   and the deterministic counts of every layer.  A count is 0 on a
   workload whose path does not contain its layer: no cartography in the
   engine workloads, no result cache outside the service. *)

open Common

type counts = {
  steps : int;
  board_updates : int;
  witness_hits : int;
  witness_scans : int;
  witness_skips : int;
  best_moves_calls : int;
  table_fills : int;
  cache : Distcache.stats;
  peak_tables : int;
  peak_bytes : int;
  cache_hits : int;
  cache_misses : int;
  explored : int;
  arcs : int;
  waves : int;
}

let zero =
  {
    steps = 0;
    board_updates = 0;
    witness_hits = 0;
    witness_scans = 0;
    witness_skips = 0;
    best_moves_calls = 0;
    table_fills = 0;
    cache = { Distcache.kept = 0; repaired = 0; rebuilt = 0; fills = 0; evicted = 0 };
    peak_tables = 0;
    peak_bytes = 0;
    cache_hits = 0;
    cache_misses = 0;
    explored = 0;
    arcs = 0;
    waves = 0;
  }

(* Totals over gated (engine, replay) pairs; peaks are maxima. *)
let of_replays runs =
  let total f = List.fold_left (fun acc x -> acc + f x) 0 runs in
  let cache f = total (fun ((e : Engine.result), _) -> f e.Engine.cache) in
  let peak f =
    List.fold_left
      (fun acc ((e : Engine.result), _) -> max acc (f e.Engine.residency))
      0 runs
  in
  {
    zero with
    steps = total (fun ((e : Engine.result), _) -> e.Engine.steps);
    board_updates = total (fun (_, p) -> p.Replay.board_updates);
    witness_hits = total (fun (_, p) -> p.Replay.witness_hits);
    witness_scans = total (fun (_, p) -> p.Replay.witness_scans);
    witness_skips = total (fun (_, p) -> p.Replay.witness_skips);
    best_moves_calls = total (fun (_, p) -> p.Replay.best_moves_calls);
    table_fills = total (fun (_, p) -> p.Replay.table_fills);
    cache =
      {
        Distcache.kept = cache (fun c -> c.Distcache.kept);
        repaired = cache (fun c -> c.Distcache.repaired);
        rebuilt = cache (fun c -> c.Distcache.rebuilt);
        fills = cache (fun c -> c.Distcache.fills);
        evicted = cache (fun c -> c.Distcache.evicted);
      };
    peak_tables = peak (fun x -> x.Distcache.peak);
    peak_bytes = peak (fun x -> x.Distcache.peak_bytes);
  }

(* The kernel calibration graph: the bigtrial start graph of the seed,
   SUM-GBG's Sec. 4.2.1 process at n = 2000, m = 4n. *)
let calib_n = 2000
let calib_graph seed =
  Gen.random_m_edges (Random.State.make [| seed; calib_n; 1 |]) calib_n
    (4 * calib_n)

(* ns per directed adjacency entry of the BFS the cache fills its
   tables with, one fill per source. *)
let bfs_ns_per_edge g =
  let n = Graph.n g in
  let ws = Paths.Workspace.create n in
  let dst = Intvec.create n in
  let (), dt =
    time (fun () ->
        for s = 0 to n - 1 do
          Paths.Workspace.distances_into ws g s dst
        done)
  in
  dt *. 1e9 /. float_of_int (n * 2 * Graph.m g)

(* The modules whose time the result line splits out: a span named
   "module.function" counts towards its module. *)
let modules = [ "costboard"; "policy"; "response"; "distcache"; "move" ]

(* Every per-layer metric of BENCHMARK.json, in its order.  [traced_s]
   is the traced work's wall time, [untraced_s] the same work untraced;
   the module self times plus [trace.unattributed_s] add up to
   [traced_s]. *)
let emit r tr ~traced_s ~untraced_s ~ns_per_edge (c : counts) =
  let attributed =
    List.fold_left
      (fun acc m ->
        let s = Span.self_prefix tr (m ^ ".") in
        metric r (m ^ ".self_s") "s" s;
        acc +. s)
      0.0 modules
  in
  metric r "trace.unattributed_s" "s" (traced_s -. attributed);
  metric r "trace.overhead_frac" "frac" ((traced_s -. untraced_s) /. untraced_s);
  metric r "paths.bfs_ns_per_edge" "ns" ns_per_edge;
  let count name v = metric r name "count" (float_of_int v) in
  count "engine.steps" c.steps;
  count "costboard.updates" c.board_updates;
  count "witness.hits" c.witness_hits;
  count "witness.scans" c.witness_scans;
  count "witness.skips" c.witness_skips;
  count "response.best_moves_calls" c.best_moves_calls;
  count "response.table_fills" c.table_fills;
  count "distcache.kept" c.cache.Distcache.kept;
  count "distcache.repaired" c.cache.Distcache.repaired;
  count "distcache.rebuilt" c.cache.Distcache.rebuilt;
  count "distcache.fills" c.cache.Distcache.fills;
  count "distcache.evicted" c.cache.Distcache.evicted;
  metric r "distcache.fills_per_step" "count"
    (float_of_int c.cache.Distcache.fills /. float_of_int (max 1 c.steps));
  count "distcache.peak_tables" c.peak_tables;
  metric r "distcache.peak_bytes" "bytes" (float_of_int c.peak_bytes);
  count "cache.hits" c.cache_hits;
  count "cache.misses" c.cache_misses;
  count "cartography.explored" c.explored;
  count "cartography.arcs" c.arcs;
  count "cartography.waves" c.waves

(* The engine replay's own layer split, as detail lines. *)
let engine_details r tr (c : counts) =
  List.iter
    (fun layer -> detail r (layer ^ "_s") "s" (Span.self_time tr layer))
    [
      "costboard.refresh";
      "policy.select";
      "response.best_moves";
      "distcache.ensure";
      "move.apply";
      "distcache.patch";
    ];
  detail r "witness.useful_ratio" "frac"
    (float_of_int c.witness_hits
    /. float_of_int (max 1 (c.witness_hits + c.witness_scans)))
