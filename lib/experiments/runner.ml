type spec = {
  model : Model.t;
  generate : Random.State.t -> Graph.t;
  policy : Policy.t;
  tie_break : Engine.tie_break;
  max_steps : int;
  detect_cycles : bool;
  audit : Audit.level;
  sentinel : Sentinel.level;
  time_budget : float option;
  max_retries : int;
}

let spec ?(policy = Policy.Max_cost) ?(tie_break = Engine.Uniform) ?max_steps
    ?(detect_cycles = true) ?(audit = Audit.Off) ?(sentinel = Sentinel.Off)
    ?time_budget ?(max_retries = 0) model generate =
  if max_retries < 0 then invalid_arg "Runner.spec: max_retries < 0";
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> (50 * Model.n model) + 2000
  in
  { model; generate; policy; tie_break; max_steps; detect_cycles; audit;
    sentinel; time_budget; max_retries }

(* Attempt 0 keeps the historical derivation (so existing seeds reproduce
   published numbers bit for bit); retries fold the attempt index in as a
   fresh sub-seed.  Each (seed, trial, attempt) triple seeds a private
   stream by state-splitting — never by drawing from a shared stream — so
   trial i's draws are identical whatever the domain count, on any shard of
   any fleet, or after a resume. *)
let trial_rng t ~seed ~trial ~attempt =
  if attempt = 0 then Random.State.make [| seed; trial; Model.n t.model |]
  else Random.State.make [| seed; trial; Model.n t.model; attempt |]

let backoff_budget budget ~attempt =
  Option.map (fun b -> b *. (2. ** float_of_int attempt)) budget

let run_attempt t ~seed ~trial ~attempt =
  let rng = trial_rng t ~seed ~trial ~attempt in
  let g = t.generate rng in
  let cfg =
    Engine.config ~policy:t.policy ~tie_break:t.tie_break
      ~max_steps:t.max_steps ~detect_cycles:t.detect_cycles
      ~record_history:false ~audit:t.audit ~sentinel:t.sentinel
      ?time_budget:(backoff_budget t.time_budget ~attempt)
      t.model
  in
  Engine.run ~rng cfg g

let run_trial t ~seed ~trial = run_attempt t ~seed ~trial ~attempt:0

(* A retry is only worth burning time on when the failure could be
   transient or attempt-specific: a crash, a wall-clock timeout (the
   budget backs off), or an invariant fault (a fresh sub-seed walks a
   different trajectory).  Converged/cycle/step-limit are honest,
   deterministic results. *)
let retryable = function
  | Stats.Crashed _ -> true
  | Stats.Finished
      { reason = Engine.Time_limit | Engine.Invariant_violation _; _ } ->
      true
  | Stats.Finished _ -> false

let crashed exn backtrace =
  Stats.Crashed
    {
      exn = Printexc.to_string exn;
      backtrace = Printexc.raw_backtrace_to_string backtrace;
    }

let verdict_of_attempt t ~seed ~trial ~attempt =
  match run_attempt t ~seed ~trial ~attempt with
  | r ->
      ( Stats.Finished { reason = r.Engine.reason; steps = r.Engine.steps },
        r.Engine.sentinel )
  | exception exn ->
      (crashed exn (Printexc.get_raw_backtrace ()), Sentinel.clean_report)

(* Every attempt, the first included, runs solo through [run_attempt], so
   each one's wall-clock budget starts when that attempt starts. *)
let trial_outcome t ~seed trial =
  let rec go attempt divergences =
    let verdict, sentinel = verdict_of_attempt t ~seed ~trial ~attempt in
    let divergences = divergences @ sentinel.Sentinel.incidents in
    if retryable verdict && attempt < t.max_retries then
      go (attempt + 1) divergences
    else
      ( Stats.of_verdict ~attempts:(attempt + 1)
          ~degraded:(divergences <> [])
          ~quarantined:(t.max_retries > 0 && retryable verdict)
          verdict,
        divergences )
  in
  go 0 []

(* Cooperative interruption: a signal handler flips the flag; sweeps honor
   it at batch boundaries, after the completed batch has been recorded.
   The triggering signal is kept so the process can exit with the
   signal-accurate conventional code (130 for SIGINT, 143 for SIGTERM). *)
let stop_flag = Atomic.make false
let stop_signal_ = Atomic.make 0

let request_stop ?signal () =
  (match signal with Some s -> Atomic.set stop_signal_ s | None -> ());
  Atomic.set stop_flag true

let stop_requested () = Atomic.get stop_flag

let stop_signal () =
  match Atomic.get stop_signal_ with 0 -> None | s -> Some s

let reset_stop () =
  Atomic.set stop_flag false;
  Atomic.set stop_signal_ 0

exception Interrupted

let run_outcomes ?(domains = 1) ?(seed = 2013) ?checkpoint ?(key = "")
    ?incidents ?range ?on_batch ~trials t =
  let lo, hi =
    match range with
    | None -> (0, trials)
    | Some (lo, hi) ->
        if lo < 0 || hi > trials || lo > hi then
          invalid_arg "Runner.run_outcomes: range outside [0, trials]";
        (lo, hi)
  in
  let outcomes = Array.make trials None in
  (match checkpoint with
  | None -> ()
  | Some cp ->
      List.iter
        (fun (trial, outcome) ->
          if trial >= lo && trial < hi then outcomes.(trial) <- Some outcome)
        (Checkpoint.completed cp ~key));
  let pending =
    List.filter
      (fun trial -> outcomes.(trial) = None)
      (List.init (hi - lo) (fun i -> lo + i))
  in
  (* Without a checkpoint, one fan-out over all trials (no bookkeeping on
     the hot path).  With one, work in batches so completed trials hit disk
     periodically and an interruption loses at most one batch. *)
  let batches =
    match checkpoint with
    | None -> (match pending with [] -> [] | _ -> [ pending ])
    | Some _ ->
        let batch_size = 8 * max 1 domains in
        let rec split = function
          | [] -> []
          | l ->
              let rec take k = function
                | rest when k = 0 -> ([], rest)
                | [] -> ([], [])
                | x :: rest ->
                    let taken, dropped = take (k - 1) rest in
                    (x :: taken, dropped)
              in
              let batch, rest = take batch_size l in
              batch :: split rest
        in
        split pending
  in
  List.iter
    (fun batch ->
      if Atomic.get stop_flag then raise Interrupted;
      let captured =
        Ncg_parallel.Pool.map_result ~domains (trial_outcome t ~seed) batch
      in
      let per_trial =
        List.map
          (function
            | Ok pair -> pair
            | Error (exn, backtrace) ->
                (* the retry loop captures trial exceptions itself; this
                   only fires if the harness around it fails *)
                (Stats.of_verdict (crashed exn backtrace), []))
          captured
      in
      List.iter2
        (fun trial (outcome, divergences) ->
          outcomes.(trial) <- Some outcome;
          (match checkpoint with
          | Some cp -> Checkpoint.record cp ~key ~trial outcome
          | None -> ());
          match incidents with
          | None -> ()
          | Some log ->
              List.iter
                (fun incident ->
                  Incident_log.record log
                    (Incident_log.Divergence { key; trial; incident }))
                divergences;
              if outcome.Stats.degraded then
                Incident_log.record log
                  (Incident_log.Degraded { key; trial; outcome });
              if outcome.Stats.quarantined then
                Incident_log.record log
                  (Incident_log.Quarantined { key; trial; outcome }))
        batch per_trial;
      match on_batch with None -> () | Some f -> f ())
    batches;
  List.init (hi - lo) (fun i ->
      match outcomes.(lo + i) with
      | Some o -> o
      | None -> assert false (* every index is completed or pending *))

let run ?domains ?seed ?checkpoint ?key ?incidents ~trials t =
  Stats.summarize_outcomes
    (run_outcomes ?domains ?seed ?checkpoint ?key ?incidents ~trials t)
