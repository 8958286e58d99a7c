(* Tests for the experiment harness and the parallel substrate. *)
open Ncg_game
open Ncg_core
open Ncg_experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  let xs = List.init 37 (fun i -> i) in
  let expected = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "sequential" expected
    (Ncg_parallel.Pool.map (fun x -> x * x) xs);
  Alcotest.(check (list int)) "parallel preserves order" expected
    (Ncg_parallel.Pool.map ~domains:3 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more domains than items" [ 4 ]
    (Ncg_parallel.Pool.map ~domains:8 (fun x -> x * x) [ 2 ]);
  check_int "map_reduce" 55
    (Ncg_parallel.Pool.map_reduce ~domains:2 ~map:(fun x -> x * x)
       ~combine:( + ) 0
       [ 1; 2; 3; 4; 5 ]);
  check "recommended domains positive" true
    (Ncg_parallel.Pool.recommended_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let small_spec () =
  let model = Model.make Model.Asg Model.Sum 12 in
  Runner.spec model (fun rng -> Ncg_graph.Gen.random_budget_network rng 12 2)

let test_runner_deterministic () =
  let s1 = Runner.run ~trials:6 (small_spec ()) in
  let s2 = Runner.run ~trials:6 (small_spec ()) in
  check "same seed, same summary" true (s1 = s2);
  let s3 = Runner.run ~seed:999 ~trials:6 (small_spec ()) in
  check "summaries carry runs" true (s3.Stats.runs = 6)

let test_runner_parallel_matches_sequential () =
  let s1 = Runner.run ~domains:1 ~trials:8 (small_spec ()) in
  let s2 = Runner.run ~domains:4 ~trials:8 (small_spec ()) in
  check "domains do not change results" true (s1 = s2)

let test_runner_converges () =
  let s = Runner.run ~trials:10 (small_spec ()) in
  check_int "all converged" 10 s.Stats.converged;
  check_int "no cycles" 0 s.Stats.cycles;
  check "within 5n" true (s.Stats.max_steps <= 5 * 12)

(* ------------------------------------------------------------------ *)
(* Robustness: crashing trials, budgets, checkpoint/resume             *)
(* ------------------------------------------------------------------ *)

let test_runner_survives_crashing_trial () =
  let model = Model.make Model.Asg Model.Sum 10 in
  let trial_counter = Atomic.make 0 in
  let spec =
    Runner.spec model (fun rng ->
        let k = Atomic.fetch_and_add trial_counter 1 in
        if k = 3 then failwith "injected trial failure";
        Ncg_graph.Gen.random_budget_network rng 10 2)
  in
  let s = Runner.run ~trials:8 spec in
  check_int "all trials counted" 8 s.Stats.runs;
  check_int "one error recorded" 1 s.Stats.errors;
  check_int "seven trials converged" 7 s.Stats.converged

let test_runner_time_budget () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~time_budget:(-1.0) model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let s = Runner.run ~trials:5 spec in
  check_int "every trial hit the wall clock" 5 s.Stats.timed_out;
  check_int "none converged" 0 s.Stats.converged

let test_runner_audited () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~audit:Ncg_core.Audit.Every_step model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let plain =
    Runner.run ~trials:6
      (Runner.spec model (fun rng ->
           Ncg_graph.Gen.random_budget_network rng 12 2))
  in
  let audited = Runner.run ~trials:6 spec in
  check_int "no violations on healthy dynamics" 0 audited.Stats.faulted;
  check "audit does not change the statistics" true
    (plain.Stats.avg_steps = audited.Stats.avg_steps
    && plain.Stats.max_steps = audited.Stats.max_steps)

let with_temp_checkpoint f =
  let path = Filename.temp_file "ncg_ckpt" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_resume_parity () =
  with_temp_checkpoint (fun path ->
      let spec () = small_spec () in
      let uninterrupted = Runner.run ~trials:9 (spec ()) in
      (* phase 1: run only a prefix of the trials, recording them *)
      let cp = Checkpoint.open_ ~fingerprint:"parity" path in
      let partial =
        Runner.run_outcomes ~checkpoint:cp ~key:"pt" ~trials:4 (spec ())
      in
      Checkpoint.close cp;
      check_int "four recorded" 4 (List.length partial);
      (* phase 2: resume with the full trial count; the four completed
         trials load from disk, the rest run fresh *)
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"parity" path in
      check_int "completed trials loaded" 4
        (List.length (Checkpoint.completed cp ~key:"pt"));
      let resumed = Runner.run ~checkpoint:cp ~key:"pt" ~trials:9 (spec ()) in
      Checkpoint.close cp;
      check "resumed summary equals uninterrupted" true
        (resumed = uninterrupted))

let test_checkpoint_outcome_roundtrip () =
  with_temp_checkpoint (fun path ->
      let outcomes =
        [ Stats.of_verdict
            (Stats.Finished { reason = Engine.Converged; steps = 12 });
          Stats.of_verdict ~attempts:2
            (Stats.Finished
               { reason =
                   Engine.Cycle_detected { first_visit = 3; period = 4 };
                 steps = 7 });
          Stats.of_verdict ~degraded:true
            (Stats.Finished { reason = Engine.Step_limit; steps = 600 });
          Stats.of_verdict
            (Stats.Finished { reason = Engine.Time_limit; steps = 41 });
          Stats.of_verdict
            (Stats.Finished
               { reason =
                   Engine.Invariant_violation
                     {
                       Ncg_core.Audit.kind = Ncg_core.Audit.Self_loop;
                       step = 5;
                       subject = Some 2;
                       detail = "tab\there and\nnewline";
                     };
                 steps = 5 });
          Stats.of_verdict ~attempts:3 ~quarantined:true
            (Stats.Crashed
               { exn = "Failure(\"boom\")"; backtrace = "frame 0" })
        ]
      in
      let cp = Checkpoint.open_ ~fingerprint:"rt" path in
      List.iteri
        (fun trial o -> Checkpoint.record cp ~key:"k" ~trial o)
        outcomes;
      Checkpoint.close cp;
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"rt" path in
      let loaded =
        List.sort compare (Checkpoint.completed cp ~key:"k")
      in
      Checkpoint.close cp;
      check "every outcome survives the disk roundtrip" true
        (loaded = List.mapi (fun i o -> (i, o)) outcomes))

let test_checkpoint_fingerprint_mismatch () =
  with_temp_checkpoint (fun path ->
      let cp = Checkpoint.open_ ~fingerprint:"sweep A" path in
      Checkpoint.record cp ~key:"k" ~trial:0
        (Stats.of_verdict
           (Stats.Finished { reason = Engine.Converged; steps = 1 }));
      Checkpoint.close cp;
      match Checkpoint.open_ ~resume:true ~fingerprint:"sweep B" path with
      | _ -> Alcotest.fail "mismatched fingerprint must be refused"
      | exception Failure _ -> check "refused" true true)

let test_checkpoint_torn_line_ignored () =
  with_temp_checkpoint (fun path ->
      let cp = Checkpoint.open_ ~fingerprint:"torn" path in
      Checkpoint.record cp ~key:"k" ~trial:0
        (Stats.of_verdict
           (Stats.Finished { reason = Engine.Converged; steps = 10 }));
      Checkpoint.record cp ~key:"k" ~trial:1
        (Stats.of_verdict
           (Stats.Finished { reason = Engine.Converged; steps = 20 }));
      Checkpoint.close cp;
      (* simulate a crash mid-write: truncate the last record *)
      let contents =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let oc = open_out_bin path in
      output_string oc (String.sub contents 0 (String.length contents - 7));
      close_out oc;
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"torn" path in
      let loaded = Checkpoint.completed cp ~key:"k" in
      let report = Checkpoint.load_report cp in
      Checkpoint.close cp;
      check_int "torn record dropped, intact one kept" 1 (List.length loaded);
      check_int "the torn line is reported, not silent" 1
        (List.length report.Checkpoint.corrupted);
      check "reported as the tail" true
        (match report.Checkpoint.corrupted with
        | [ c ] -> c.Checkpoint.tail
        | _ -> false))

(* Regression for the v1 loader's silent data loss: malformed lines were
   skipped without a trace.  The v2 loader reading a v1 file must load
   every valid record AND surface each malformed line. *)
let test_checkpoint_v1_malformed_lines_surfaced () =
  with_temp_checkpoint (fun path ->
      let oc = open_out path in
      output_string oc
        (String.concat "\n"
           [
             "# ncg-checkpoint v1\tv1-regression";
             "k\t0\tok\t10";
             "k\t1\tok\tnot-an-int";  (* malformed steps *)
             "k\t2\tbogus-tag\t5";  (* unknown tag *)
             "k\t3\tok\t30";
             "";
           ]);
      close_out oc;
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"v1-regression" path in
      let loaded = Checkpoint.completed cp ~key:"k" in
      let report = Checkpoint.load_report cp in
      Checkpoint.close cp;
      check_int "both valid records loaded" 2 (List.length loaded);
      check_int "both malformed lines counted" 2
        (List.length report.Checkpoint.corrupted);
      check "lines 3 and 4 identified" true
        (List.map (fun c -> c.Checkpoint.line) report.Checkpoint.corrupted
        = [ 3; 4 ]);
      check "migration to v2 reported" true report.Checkpoint.migrated_from_v1)

(* ------------------------------------------------------------------ *)
(* Retry, backoff, quarantine                                          *)
(* ------------------------------------------------------------------ *)

let test_backoff_budget () =
  check "no budget stays none" true
    (Runner.backoff_budget None ~attempt:3 = None);
  Alcotest.(check (float 1e-9))
    "attempt 0 keeps the budget" 0.5
    (Option.get (Runner.backoff_budget (Some 0.5) ~attempt:0));
  Alcotest.(check (float 1e-9))
    "attempt 1 doubles it" 1.0
    (Option.get (Runner.backoff_budget (Some 0.5) ~attempt:1));
  Alcotest.(check (float 1e-9))
    "attempt 2 doubles again" 2.0
    (Option.get (Runner.backoff_budget (Some 0.5) ~attempt:2))

(* A trial that always times out: retried with a doubled budget each
   attempt, and after the last retry it is quarantined with the attempt
   count on record. *)
let test_timeout_retries_then_quarantine () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~time_budget:(-1.0) ~max_retries:2 model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let outcomes = Runner.run_outcomes ~trials:3 spec in
  check_int "three outcomes" 3 (List.length outcomes);
  List.iter
    (fun (o : Stats.outcome) ->
      check "timed out" true
        (match o.Stats.verdict with
        | Stats.Finished { reason = Engine.Time_limit; _ } -> true
        | _ -> false);
      check_int "all attempts used" 3 o.Stats.attempts;
      check "quarantined" true o.Stats.quarantined)
    outcomes;
  let s = Stats.summarize_outcomes outcomes in
  check_int "summary timed_out" 3 s.Stats.timed_out;
  check_int "summary retried" 3 s.Stats.retried;
  check_int "summary quarantined" 3 s.Stats.quarantined

(* A trial that crashes on its first attempt only: the retry (fresh
   sub-seed) succeeds and nothing is quarantined. *)
let test_flaky_trial_recovers_on_retry () =
  let model = Model.make Model.Asg Model.Sum 10 in
  let calls = Atomic.make 0 in
  let spec =
    Runner.spec ~max_retries:2 model (fun rng ->
        if Atomic.fetch_and_add calls 1 = 0 then failwith "flaky attempt";
        Ncg_graph.Gen.random_budget_network rng 10 2)
  in
  let s = Runner.run ~trials:1 spec in
  check_int "the trial converged" 1 s.Stats.converged;
  check_int "no error in the statistics" 0 s.Stats.errors;
  check_int "counted as retried" 1 s.Stats.retried;
  check_int "not quarantined" 0 s.Stats.quarantined

(* Without retries enabled, behavior is exactly the historical one: a
   single attempt, no quarantine flags, whatever the verdict. *)
let test_no_retries_is_historical_behavior () =
  let model = Model.make Model.Asg Model.Sum 12 in
  let spec =
    Runner.spec ~time_budget:(-1.0) model (fun rng ->
        Ncg_graph.Gen.random_budget_network rng 12 2)
  in
  let outcomes = Runner.run_outcomes ~trials:2 spec in
  List.iter
    (fun (o : Stats.outcome) ->
      check_int "single attempt" 1 o.Stats.attempts;
      check "not quarantined" false o.Stats.quarantined)
    outcomes

let test_quarantine_reaches_incident_log () =
  let log_path = Filename.temp_file "ncg_incidents" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let model = Model.make Model.Asg Model.Sum 10 in
      let spec =
        Runner.spec ~max_retries:1 model (fun _ -> failwith "always broken")
      in
      let log = Incident_log.open_ log_path in
      let s =
        Runner.run ~incidents:log ~trials:2 spec
      in
      Incident_log.close log;
      check_int "both trials quarantined" 2 s.Stats.quarantined;
      let ic = open_in log_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      check_int "one JSON line per quarantined trial" 2 (List.length !lines);
      List.iter
        (fun line ->
          check "records the event kind" true
            (Astring_like.contains line "\"quarantined\"");
          check "records the attempt count" true
            (Astring_like.contains line "\"attempts\":2"))
        !lines)

(* ------------------------------------------------------------------ *)
(* Trial seeding, shards, interruption, per-trial budgets              *)
(* ------------------------------------------------------------------ *)

let gbg_spec ?time_budget () =
  let model =
    Model.make ~alpha:(Ncg_rational.Q.of_int 3) Model.Gbg Model.Sum 10
  in
  Runner.spec ~max_steps:400 ?time_budget model (fun rng ->
      Ncg_graph.Gen.random_m_edges rng 10 14)

let test_rng_contract () =
  let spec = gbg_spec () in
  (* attempt 0 is the historical (seed, trial, n) triple — a state-split
     private stream, not draws off a shared sweep stream *)
  let trial_stream = Runner.trial_rng spec ~seed:42 ~trial:3 ~attempt:0 in
  let expected = Random.State.make [| 42; 3; 10 |] in
  for _ = 1 to 32 do
    check_int "trial stream = (seed, trial, n) stream"
      (Random.State.int expected 1_000_000)
      (Random.State.int trial_stream 1_000_000)
  done;
  (* the retry sub-seed appends the attempt to the triple; it cannot
     depend on how many draws attempt 0 (or any other trial) made *)
  let attempt0 = Runner.trial_rng spec ~seed:42 ~trial:3 ~attempt:0 in
  for _ = 1 to 17 do
    ignore (Random.State.int attempt0 99)
  done;
  let retry = Runner.trial_rng spec ~seed:42 ~trial:3 ~attempt:1 in
  let expected = Random.State.make [| 42; 3; 10; 1 |] in
  for _ = 1 to 32 do
    check_int "retry sub-seed stable under other draws"
      (Random.State.int expected 1_000_000)
      (Random.State.int retry 1_000_000)
  done

let test_shard_is_slice () =
  let spec = gbg_spec () in
  let full = Runner.run_outcomes ~seed:9 ~trials:10 spec in
  let shard = Runner.run_outcomes ~seed:9 ~trials:10 ~range:(4, 9) spec in
  check "shard outcomes = slice of the full run" true
    (shard = List.filteri (fun i _ -> i >= 4 && i < 9) full)

let test_interrupt_resume_parity () =
  (* A stop request lands after the first recorded checkpoint group; the
     resumed run must reproduce the uninterrupted outcomes bit for bit —
     the same guarantee suite_fleet checks with real SIGKILLs through the
     CLI, here at the runner layer. *)
  with_temp_checkpoint (fun path ->
      let uninterrupted = Runner.run_outcomes ~trials:20 (gbg_spec ()) in
      Runner.reset_stop ();
      let cp = Checkpoint.open_ ~fingerprint:"interrupt" path in
      let fired = ref 0 in
      (match
         Runner.run_outcomes ~checkpoint:cp ~key:"b" ~trials:20
           ~on_batch:(fun () ->
             incr fired;
             if !fired = 1 then Runner.request_stop ())
           (gbg_spec ())
       with
      | _ -> Alcotest.fail "expected Interrupted"
      | exception Runner.Interrupted -> ());
      Checkpoint.close cp;
      Runner.reset_stop ();
      let cp = Checkpoint.open_ ~resume:true ~fingerprint:"interrupt" path in
      let done_before = List.length (Checkpoint.completed cp ~key:"b") in
      check "interrupt left a strict prefix on disk" true
        (done_before > 0 && done_before < 20);
      let resumed =
        Runner.run_outcomes ~checkpoint:cp ~key:"b" ~trials:20 (gbg_spec ())
      in
      Checkpoint.close cp;
      check "resumed outcomes bit-identical to uninterrupted" true
        (resumed = uninterrupted))

let test_retry_subseed_stability () =
  (* Trials whose generator raises are retried on the appended-attempt
     sub-seed; the attempt that finally succeeds inside the sweep must be
     byte-identical to the same attempt run on its own. *)
  let model =
    Model.make ~alpha:(Ncg_rational.Q.of_int 3) Model.Gbg Model.Sum 8
  in
  let generate rng =
    let g = Ncg_graph.Gen.random_m_edges rng 8 10 in
    if Random.State.int rng 4 = 0 then failwith "injected fault";
    g
  in
  let spec = Runner.spec ~max_steps:400 ~max_retries:2 model generate in
  let seed = 5 in
  let outcomes = Runner.run_outcomes ~seed ~trials:12 spec in
  check_int "every trial has an outcome" 12 (List.length outcomes);
  check "the fault injection actually fired" true
    (List.exists (fun o -> o.Stats.attempts > 1) outcomes);
  List.iteri
    (fun trial o ->
      match o.Stats.verdict with
      | Stats.Finished { reason; steps } ->
          let attempt = o.Stats.attempts - 1 in
          let solo = Runner.run_attempt spec ~seed ~trial ~attempt in
          check "winning attempt reproduces its sub-seed" true
            (solo.Engine.reason = reason && solo.Engine.steps = steps)
      | Stats.Crashed _ ->
          check "exhausted trials are quarantined" true o.Stats.quarantined)
    outcomes;
  check "retries are deterministic" true
    (Runner.run_outcomes ~seed ~trials:12 spec = outcomes)

let test_expired_budget_stops_at_step_zero () =
  (* A budget strictly in the past stops every trial at step 0 with
     [Time_limit] — deterministically.  (A 0.0 budget would be a coin
     flip: the deadline check is a strict comparison, so a first step
     landing in the same clock microsecond as the start still executes.) *)
  let spec = gbg_spec ~time_budget:(-1.0) () in
  List.iteri
    (fun trial (o : Stats.outcome) ->
      check "outcome: Time_limit at step 0" true
        (o.Stats.verdict
        = Stats.Finished { reason = Engine.Time_limit; steps = 0 });
      let r = Runner.run_trial spec ~seed:21 ~trial in
      check "trial: Time_limit at step 0" true
        (r.Engine.reason = Engine.Time_limit && r.Engine.steps = 0))
    (Runner.run_outcomes ~seed:21 ~trials:4 spec)

let test_time_budget_is_per_trial () =
  (* [time_budget] is a per-trial clock: a sweep whose every trial gets
     several times the slowest trial's own run time must time out none of
     them, however many trials run before it. *)
  let n = 80 in
  let model =
    Model.make ~alpha:(Ncg_rational.Q.make n 4) Model.Gbg Model.Sum n
  in
  let spec ?time_budget () =
    Runner.spec ~tie_break:Engine.Prefer_deletion ?time_budget model
      (fun rng -> Ncg_graph.Gen.random_m_edges rng n (4 * n))
  in
  let trials = 8 and seed = 11 in
  let slowest = ref 0.0 in
  for trial = 0 to trials - 1 do
    let t0 = Unix.gettimeofday () in
    ignore (Runner.run_trial (spec ()) ~seed ~trial);
    slowest := Float.max !slowest (Unix.gettimeofday () -. t0)
  done;
  let s =
    Runner.run ~domains:1 ~seed ~trials
      (spec ~time_budget:(4.0 *. !slowest) ())
  in
  check_int "every trial ran" trials s.Stats.runs;
  check_int "no trial timed out" 0 s.Stats.timed_out

let test_signal_names () =
  List.iter
    (fun (s, name) -> Alcotest.(check string) name name (Sysx.signal_name s))
    [
      (Sys.sigkill, "SIGKILL");
      (Sys.sigterm, "SIGTERM");
      (Sys.sigint, "SIGINT");
      (Sys.sigsegv, "SIGSEGV");
      (Sys.sigabrt, "SIGABRT");
      (Sys.sigbus, "SIGBUS");
      (Sys.sigstop, "SIGSTOP");
      (Sys.sigquit, "SIGQUIT");
      (Sys.sigusr1, Printf.sprintf "signal %d" Sys.sigusr1);
    ]

let test_sweep_checkpoint_resume () =
  with_temp_checkpoint (fun path ->
      let params checkpoint =
        { (Asg_budget.default Model.Sum) with
          Asg_budget.budgets = [ 2 ];
          policies = [ List.hd Asg_budget.paper_policies ];
          ns = [ 8; 10 ];
          trials = 5;
          checkpoint }
      in
      let reference = Asg_budget.sweep (params None) in
      let fingerprint = "sweep-test" in
      (* interrupted attempt: only the n=8 point runs *)
      let cp = Checkpoint.open_ ~fingerprint path in
      ignore
        (Asg_budget.sweep
           { (params (Some cp)) with Asg_budget.ns = [ 8 ] });
      Checkpoint.close cp;
      (* resumed full sweep *)
      let cp = Checkpoint.open_ ~resume:true ~fingerprint path in
      let resumed = Asg_budget.sweep (params (Some cp)) in
      Checkpoint.close cp;
      check "resumed sweep matches the uninterrupted reference" true
        (resumed = reference))

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let test_asg_sweep_structure () =
  let p =
    { (Asg_budget.default Model.Sum) with
      Asg_budget.budgets = [ 1; 2 ];
      ns = [ 8; 12 ];
      trials = 3 }
  in
  let curves = Asg_budget.sweep p in
  check_int "budgets x policies curves" 4 (List.length curves);
  List.iter
    (fun (c : Series.curve) ->
      check_int "points per curve" 2 (List.length c.Series.points))
    curves;
  check "labels follow the paper" true
    (List.exists (fun c -> c.Series.label = "k=2 max cost") curves)

let test_gbg_sweep_structure () =
  let p =
    { (Gbg_sweep.default Model.Max) with
      Gbg_sweep.m_factors = [ 1 ];
      alphas = [ Gbg_sweep.Alpha_n_over 4 ];
      ns = [ 10 ];
      trials = 3 }
  in
  let curves = Gbg_sweep.sweep p in
  check_int "two curves (policies)" 2 (List.length curves);
  check "alpha labels" true
    (Gbg_sweep.alpha_label (Gbg_sweep.Alpha_n_over 4) = "a=n/4"
    && Gbg_sweep.alpha_label (Gbg_sweep.Alpha_n_over 1) = "a=n");
  check "alpha value exact" true
    (Ncg_rational.Q.equal
       (Gbg_sweep.alpha_of (Gbg_sweep.Alpha_n_over 4) 10)
       (Ncg_rational.Q.make 5 2))

let test_topology_settings () =
  let rng = Random.State.make [| 1 |] in
  let rl = Topology.generate Topology.Random_line rng 9 in
  check "rl is a tree" true (Ncg_graph.Tree.is_tree rl);
  let dl = Topology.generate Topology.Directed_line rng 9 in
  check "dl ownership directed" true
    (List.for_all (fun i -> Ncg_graph.Graph.owns dl i (i + 1))
       (List.init 8 (fun i -> i)));
  let rnd = Topology.generate Topology.Random_net rng 9 in
  check_int "random has n edges" 9 (Ncg_graph.Graph.m rnd);
  Alcotest.(check string) "labels" "rl" (Topology.setting_label Topology.Random_line)

let test_topology_sweep_runs () =
  let p =
    { (Topology.default Model.Sum) with
      Topology.settings = [ Topology.Directed_line ];
      alphas = [ Gbg_sweep.Alpha_n_over 4 ];
      ns = [ 10 ];
      trials = 2 }
  in
  let curves = Topology.sweep p in
  check_int "curves" 2 (List.length curves);
  List.iter
    (fun (c : Series.curve) ->
      List.iter
        (fun (pt : Series.point) ->
          check "trials all converged" true
            (pt.Series.summary.Stats.converged = 2))
        c.Series.points)
    curves

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let fake_curves () =
  let summary steps =
    Stats.summarize
      [ { Engine.reason = Engine.Converged; steps; history = [];
          final = Ncg_graph.Gen.path 2;
          sentinel = Sentinel.clean_report;
          cache = Ncg_game.Distcache.zero_stats;
          residency = Ncg_game.Distcache.zero_residency } ]
  in
  [ { Series.label = "a";
      points =
        [ { Series.n = 10; summary = summary 30 };
          { Series.n = 20; summary = summary 90 } ] };
    { Series.label = "b";
      points = [ { Series.n = 10; summary = summary 55 } ] } ]

let test_series_envelope () =
  let curves = fake_curves () in
  let verdicts = Series.envelope (fun n -> float_of_int (5 * n)) "5n" curves in
  check "a within 5n" true (List.assoc "a: 5n" verdicts);
  check "b above 5n" false (List.assoc "b: 5n" verdicts);
  Alcotest.(check (float 1e-9)) "max_over" 5.5 (Series.max_over curves)

let test_series_rendering () =
  let curves = fake_curves () in
  let table = Series.to_table ~value:`Max curves in
  check "table mentions labels" true
    (Astring_like.contains table "a" && Astring_like.contains table "b");
  check "missing points dashed" true (Astring_like.contains table "-");
  let dat = Series.to_gnuplot ~value:`Max curves in
  check "gnuplot has comment headers" true (Astring_like.contains dat "# a");
  check "gnuplot data line" true (Astring_like.contains dat "20 90.000");
  let path = Filename.temp_file "ncg" ".dat" in
  Series.write_gnuplot path curves;
  let happy = Sys.file_exists path in
  Sys.remove path;
  check "write_gnuplot creates file" true happy

let suite =
  ( "experiments",
    [
      Alcotest.test_case "pool map" `Quick test_pool_map;
      Alcotest.test_case "runner determinism" `Quick
        test_runner_deterministic;
      Alcotest.test_case "runner parallel equivalence" `Quick
        test_runner_parallel_matches_sequential;
      Alcotest.test_case "runner convergence" `Quick test_runner_converges;
      Alcotest.test_case "runner survives a crashing trial" `Quick
        test_runner_survives_crashing_trial;
      Alcotest.test_case "runner time budget" `Quick test_runner_time_budget;
      Alcotest.test_case "runner with auditing" `Quick test_runner_audited;
      Alcotest.test_case "checkpoint resume parity" `Quick
        test_checkpoint_resume_parity;
      Alcotest.test_case "checkpoint outcome roundtrip" `Quick
        test_checkpoint_outcome_roundtrip;
      Alcotest.test_case "checkpoint fingerprint mismatch" `Quick
        test_checkpoint_fingerprint_mismatch;
      Alcotest.test_case "checkpoint torn line" `Quick
        test_checkpoint_torn_line_ignored;
      Alcotest.test_case "checkpoint v1 malformed lines surfaced" `Quick
        test_checkpoint_v1_malformed_lines_surfaced;
      Alcotest.test_case "backoff budget" `Quick test_backoff_budget;
      Alcotest.test_case "timeout retries then quarantine" `Quick
        test_timeout_retries_then_quarantine;
      Alcotest.test_case "flaky trial recovers on retry" `Quick
        test_flaky_trial_recovers_on_retry;
      Alcotest.test_case "no retries is historical behavior" `Quick
        test_no_retries_is_historical_behavior;
      Alcotest.test_case "quarantine reaches incident log" `Quick
        test_quarantine_reaches_incident_log;
      Alcotest.test_case "RNG seeding contract" `Quick test_rng_contract;
      Alcotest.test_case "shard = slice of the full run" `Quick
        test_shard_is_slice;
      Alcotest.test_case "interrupt/resume at a checkpoint group" `Quick
        test_interrupt_resume_parity;
      Alcotest.test_case "retry sub-seed stability" `Quick
        test_retry_subseed_stability;
      Alcotest.test_case "expired budget is Time_limit at step 0" `Quick
        test_expired_budget_stops_at_step_zero;
      Alcotest.test_case "time budget is per trial" `Quick
        test_time_budget_is_per_trial;
      Alcotest.test_case "signal names" `Quick test_signal_names;
      Alcotest.test_case "sweep checkpoint resume" `Quick
        test_sweep_checkpoint_resume;
      Alcotest.test_case "asg sweep structure" `Quick
        test_asg_sweep_structure;
      Alcotest.test_case "gbg sweep structure" `Quick
        test_gbg_sweep_structure;
      Alcotest.test_case "topology settings" `Quick test_topology_settings;
      Alcotest.test_case "topology sweep" `Quick test_topology_sweep_runs;
      Alcotest.test_case "series envelopes" `Quick test_series_envelope;
      Alcotest.test_case "series rendering" `Quick test_series_rendering;
    ] )
