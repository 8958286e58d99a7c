(* sweep-n100: the Fig. 11 point as `ncg_sim fig11` runs it — SUM-GBG,
   n = 100, m = 4n, alpha = n/4, prefer-deletion ties, cycle detection
   on — both paper policies through [Runner.run ~domains:1].

   A sample is [trials] trials of each policy on a fresh sample seed;
   the run takes samples until its time is up and reports the median
   sample rate. *)

open Common
module Runner = Ncg_experiments.Runner

let n = 100
let trials = 4

let make_specs () =
  let model =
    Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n
  in
  List.map
    (fun policy ->
      Runner.spec ~policy ~tie_break:Engine.Prefer_deletion model (fun rng ->
          Gen.random_m_edges rng n (4 * n)))
    [ Policy.Max_cost; Policy.Random_unhappy ]

let specs = make_specs ()
let sample_seed o j = (o.seed * 1000) + j

(* Everything a user waits through before trials start: the model, the
   specs and the first sample's initial networks. *)
let setup o =
  List.concat_map
    (fun (s : Runner.spec) ->
      List.init trials (fun trial ->
          s.Runner.generate
            (Runner.trial_rng s ~seed:(sample_seed o 0) ~trial ~attempt:0)))
    (make_specs ())

let replay_of (s : Runner.spec) ?tr ~seed ~trial () =
  let rng = Runner.trial_rng s ~seed ~trial ~attempt:0 in
  let g = s.Runner.generate rng in
  Replay.run ?tr ~policy:s.Runner.policy ~tie:Replay.Prefer_deletion
    ~max_steps:s.Runner.max_steps ~detect_cycles:true ~rng s.Runner.model g

let policy_name (s : Runner.spec) =
  match s.Runner.policy with Policy.Max_cost -> "max_cost" | _ -> "random"

(* The deterministic counters: sample 0's summaries plus the gate trial
   (trial 0 of sample 0, per policy) — both a pure function of the
   seed, whatever the run length or trace mode. *)
let add_counters r name (sum : Stats.summary) (e : Engine.result)
    (p : Replay.result) =
  let c k v = counter r (name ^ "." ^ k) v in
  c "runs" sum.Stats.runs;
  c "converged" sum.Stats.converged;
  c "steps_total"
    (int_of_float
       (Float.round (sum.Stats.avg_steps *. float_of_int sum.Stats.converged)));
  c "steps_max" sum.Stats.max_steps;
  c "trial0.steps" e.Engine.steps;
  c "trial0.kept" e.Engine.cache.Distcache.kept;
  c "trial0.repaired" e.Engine.cache.Distcache.repaired;
  c "trial0.rebuilt" e.Engine.cache.Distcache.rebuilt;
  c "trial0.fills" e.Engine.cache.Distcache.fills;
  c "trial0.evicted" e.Engine.cache.Distcache.evicted;
  c "trial0.witness_hits" p.Replay.witness_hits;
  c "trial0.witness_scans" p.Replay.witness_scans;
  c "trial0.witness_skips" p.Replay.witness_skips

let check_summary r ~seed (s : Runner.spec) (sum : Stats.summary) =
  let ok = sum.Stats.converged = sum.Stats.runs && sum.Stats.runs = trials in
  for _ = 1 to sum.Stats.runs do
    attempt r ~ok
  done;
  check r ok
    (Printf.sprintf "sweep %s seed %d: %d of %d trials converged"
       (policy_name s) seed sum.Stats.converged sum.Stats.runs)

let gate r ~seed s =
  let e = Runner.run_trial s ~seed ~trial:0 in
  let p = replay_of s ~seed ~trial:0 () in
  let ok = Replay.agrees p e in
  attempt r ~ok;
  check r ok
    (Printf.sprintf "sweep %s seed %d: replay diverged from Engine.run"
       (policy_name s) seed);
  (e, p)

let run_untraced o r =
  (* one set-up before each sample, so the median spans the whole run *)
  let setups = ref [] in
  let rates = ref [] in
  let first = ref [] and peak = ref Float.nan in
  let j = ref 0 in
  reset_peak_rss ();
  samples ~min:5 o (fun () ->
      Gc.compact ();
      setups := snd (time (fun () -> ignore (setup o))) :: !setups;
      let seed = sample_seed o !j in
      let sums, dt =
        time (fun () ->
            List.map (fun s -> Runner.run ~domains:1 ~seed ~trials s) specs)
      in
      List.iter2 (check_summary r ~seed) specs sums;
      if !j = 0 then begin
        first := sums;
        peak := peak_rss_mib ()
      end;
      rates := (float_of_int (trials * List.length specs) /. dt) :: !rates;
      incr j);
  metric r "setup_s" "s" (median !setups);
  metric r "ops_per_s" "1/s" (median !rates);
  metric r "peak_rss_mib" "MiB" !peak;
  List.iter2
    (fun s sum ->
      let e, p = gate r ~seed:(sample_seed o 0) s in
      add_counters r (policy_name s) sum e p)
    specs !first

let run_traced o r =
  let seed = sample_seed o 0 in
  let tr = Span.create () in
  let t_runner = ref 0.0 and t_engine = ref 0.0 and t_traced = ref 0.0 in
  let runs =
    List.concat_map
      (fun s ->
        Gc.compact ();
        let sum, dt = time (fun () -> Runner.run ~domains:1 ~seed ~trials s) in
        t_runner := !t_runner +. dt;
        check_summary r ~seed s sum;
        let runs =
          List.init trials (fun trial ->
              let e, dt = time (fun () -> Runner.run_trial s ~seed ~trial) in
              t_engine := !t_engine +. dt;
              let p, dt = time (fun () -> replay_of s ~tr ~seed ~trial ()) in
              t_traced := !t_traced +. dt;
              let ok = Replay.agrees p e in
              attempt r ~ok;
              check r ok
                (Printf.sprintf
                   "sweep %s seed %d trial %d: traced replay diverged"
                   (policy_name s) seed trial);
              (e, p))
        in
        let e, p = List.hd runs in
        add_counters r (policy_name s) sum e p;
        runs)
      specs
  in
  let ns_per_edge = Layers.bfs_ns_per_edge (Layers.calib_graph o.seed) in
  let c = Layers.of_replays runs in
  Layers.emit r tr ~traced_s:!t_traced ~untraced_s:!t_engine ~ns_per_edge c;
  Layers.engine_details r tr c;
  detail r "runner.overhead_frac" "frac" ((!t_runner -. !t_engine) /. !t_runner);
  Span.write tr (Filename.concat o.out_dir "spans-sweep-n100.tsv")

let run o r = if o.trace then run_traced o r else run_untraced o r
