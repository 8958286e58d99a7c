type move_rule = Best_response | Any_improving

type tie_break = Uniform | Prefer_deletion | First_candidate

type config = {
  model : Model.t;
  policy : Policy.t;
  move_rule : move_rule;
  tie_break : tie_break;
  max_steps : int;
  detect_cycles : bool;
  record_history : bool;
  audit : Audit.level;
  sentinel : Sentinel.level;
  time_budget : float option;
  cache_budget : int option;
}

let config ?(policy = Policy.Max_cost) ?(move_rule = Best_response)
    ?(tie_break = Uniform) ?max_steps ?(detect_cycles = false)
    ?(record_history = true) ?(audit = Audit.Off)
    ?(sentinel = Sentinel.Off) ?time_budget ?cache_budget model =
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> (100 * Model.n model) + 1000
  in
  { model; policy; move_rule; tie_break; max_steps; detect_cycles;
    record_history; audit; sentinel; time_budget; cache_budget }

type step = {
  index : int;
  move : Move.t;
  effect : Move.kind;
  cost_before : Cost.t;
  cost_after : Cost.t;
}

type stop_reason =
  | Converged
  | Cycle_detected of { first_visit : int; period : int }
  | Step_limit
  | Time_limit
  | Invariant_violation of Audit.violation

type result = {
  reason : stop_reason;
  steps : int;
  history : step list;
  final : Graph.t;
  sentinel : Sentinel.report;
  cache : Distcache.stats;
  residency : Distcache.residency;
}

let kind_rank = function
  | Move.Kdelete -> 0
  | Move.Kswap -> 1
  | Move.Kbuy -> 2
  | Move.Kjump -> 3

let pick_uniform rng = function
  | [] -> None
  | moves -> Some (List.nth moves (Random.State.int rng (List.length moves)))

(* Tie-break among precomputed candidates.  On an equal candidate list the
   RNG draws are exactly those of [Reference.choose_move] — which is what
   lets the sentinel compare lists *before* any draw and still hand the
   reference path an unperturbed stream on divergence. *)
let pick_from cfg rng g moves =
  match cfg.move_rule with
  | Any_improving -> pick_uniform rng moves
  | Best_response -> (
      match cfg.tie_break with
      | First_candidate -> ( match moves with [] -> None | e :: _ -> Some e)
      | Uniform -> pick_uniform rng moves
      | Prefer_deletion ->
          let rank e = kind_rank (Move.classify_effect g e.Response.move) in
          let min_rank =
            List.fold_left (fun acc e -> min acc (rank e)) max_int moves
          in
          pick_uniform rng (List.filter (fun e -> rank e = min_rank) moves))

(* The candidate moves of the selected agent — the fast path.  The witness
   move cached for [u] seeds best-response pruning; it never changes the
   list, which is bit-identical to the naive [Response.best_moves] (see
   DESIGN.md §9), so the RNG consumption of the tie-break matches
   [Reference.choose_move] draw for draw. *)
let fast_candidates cfg ctx witness u =
  match cfg.move_rule with
  | Any_improving -> Response.Fast.improving_moves ctx u
  | Best_response ->
      Response.Fast.best_moves ?prior:(Witness.get witness u) ctx u

(* The same candidates through the naive machinery — the shadow replay and
   the degraded (post-divergence) path. *)
let naive_candidates cfg ~ws g u =
  match cfg.move_rule with
  | Any_improving -> Response.improving_moves ~ws cfg.model g u
  | Best_response -> Response.best_moves ~ws cfg.model g u

let choose_move cfg rng ctx witness g u =
  pick_from cfg rng g (fast_candidates cfg ctx witness u)

let state_key model g =
  if Model.uses_ownership model then Canonical.key g else Canonical.unowned_key g

(* One trial as an explicit state machine: [stepper_start] captures
   everything the step loop closes over, [stepper_advance] runs exactly one
   step (or records the stop reason), [stepper_finish] assembles the
   result. *)

type stepper_mode = Mode_fast | Mode_degraded

type stepper = {
  cfg : config;
  rng : Random.State.t;
  g : Graph.t;
  ws : Paths.Workspace.t;
  shadow_ws : Paths.Workspace.t Lazy.t;
  witness : Witness.t;
  cache : Distcache.t;
  board : Costboard.t option;
  mutable board_ready : bool;
  seen : (string, int) Hashtbl.t;
  deadline : float option;
  require_connected : bool;
  srng : Random.State.t;
  mutable history : step list; (* newest first *)
  mutable checked : int;
  mutable incidents : Sentinel.incident list; (* newest first *)
  mutable degraded_at : int option;
  mutable mode : stepper_mode;
  mutable steps : int;
  mutable last : int option;
  mutable stopped : stop_reason option;
}

let stepper_start ?rng cfg initial =
  let rng =
    match rng with
    | Some r -> r
    | None -> Random.State.make [| 0x5eed; Graph.n initial |]
  in
  let n = Graph.n initial in
  let g = Graph.copy initial in
  (* The cross-step distance cache: owned here, patched after every
     committed move, handed to each step's context. *)
  let cache = Distcache.create ?budget:cfg.cache_budget n in
  (* The bucketed cost board exists exactly when the policy sorts by
     cost; it is refreshed from the cache's dirty sets. *)
  let board =
    match cfg.policy with
    | Policy.Max_cost -> Some (Costboard.create n)
    | Policy.Random_unhappy | Policy.Round_robin | Policy.Adversarial _ -> None
  in
  let seen = Hashtbl.create 64 in
  if cfg.detect_cycles then Hashtbl.replace seen (state_key cfg.model g) 0;
  (* A connected network can never disconnect under improving moves (the
     mover's own cost would become infinite), so connectivity is part of
     the audited contract exactly when the run started connected. *)
  let require_connected = cfg.audit <> Audit.Off && Paths.is_connected g in
  {
    cfg;
    rng;
    g;
    ws = Paths.Workspace.create n;
    shadow_ws = lazy (Paths.Workspace.create n);
    witness = Witness.create n;
    cache;
    board;
    board_ready = false;
    seen;
    deadline = Option.map (fun b -> Unix.gettimeofday () +. b) cfg.time_budget;
    require_connected;
    (* Sentinel state.  The sentinel RNG and the shadow workspace are
       private to the verification layer: the trial's own draw stream and
       the live context's BFS scratch are never touched, so a healthy
       checked run is bit-identical to an unchecked one. *)
    srng = Sentinel.make_rng n;
    history = [];
    checked = 0;
    incidents = [];
    degraded_at = None;
    mode = Mode_fast;
    steps = 0;
    last = None;
    stopped = None;
  }

let audit_graph s step =
  match
    Audit.check_graph ~require_connected:s.require_connected ~step s.cfg.model
      s.g
  with
  | [] -> None
  | v :: _ -> Some v

let note_incident s phase =
  s.incidents <-
    { Sentinel.step = s.steps; fingerprint = state_key s.cfg.model s.g; phase }
    :: s.incidents

let happy_violation s u =
  (* The policy contract promises only unhappy agents, so an improving
     move must exist; surface the breach as a typed violation rather
     than crashing the whole sweep. *)
  s.stopped <-
    Some
      (Invariant_violation
         {
           Audit.kind = Audit.Happy_agent_selected;
           step = s.steps;
           subject = Some u;
           detail =
             Printf.sprintf "policy selected agent %d with no improving move" u;
         })

(* Post-choice step body shared by the fast and the degraded path: audit
   the move contract, apply, record, audit the graph, detect cycles, then
   continue in [next_mode]. *)
let finish_step s u (e : Response.evaluated) ~next_mode =
  let cfg = s.cfg in
  let effect = Move.classify_effect s.g e.Response.move in
  let contract =
    if cfg.audit = Audit.Off then None
    else
      Audit.check_move ~step:s.steps cfg.model ~mover:u
        ~before:e.Response.before ~after:e.Response.after
  in
  match contract with
  | Some v -> s.stopped <- Some (Invariant_violation v)
  | None -> (
      let c = s.cache in
      (* When a cost board is consuming dirty sets, pin the move's
         primitive endpoints resident before the first primitive: the
         cache's per-source dirty classifier needs their pre-primitive
         rows, and the pins keep a memory-bounded cache from evicting them
         mid-move (a multi-primitive move reuses them, repaired, for its
         later primitives). *)
      let pinned =
        match s.board with
        | None -> []
        | Some _ ->
            let touched = Move.touched s.g e.Response.move in
            List.iter
              (fun v ->
                ignore (Distcache.ensure c ~ws:s.ws s.g v);
                Distcache.pin c v)
              touched;
            touched
      in
      (* Patch the cache primitive by primitive: each note_* sees the graph
         exactly after its primitive, against the tables from before it —
         the state the keep/repair rules assume.  The patch also bumps the
         version counters that expire witness skip certificates depending
         on what changed. *)
      ignore
        (Move.apply_observed s.g e.Response.move ~on_prim:(fun p ->
             match p with
             | Move.Added (a, b) -> Distcache.note_added c s.g a b
             | Move.Removed (a, b, _) -> Distcache.note_removed c s.g a b));
      List.iter (fun v -> Distcache.unpin c v) pinned;
      Witness.clear s.witness u;
      if cfg.record_history then
        s.history <-
          {
            index = s.steps;
            move = e.Response.move;
            effect;
            cost_before = e.Response.before;
            cost_after = e.Response.after;
          }
          :: s.history;
      s.steps <- s.steps + 1;
      match
        if Audit.should_check cfg.audit s.steps then audit_graph s s.steps
        else None
      with
      | Some v -> s.stopped <- Some (Invariant_violation v)
      | None ->
          let continue_ () =
            s.last <- Some u;
            s.mode <- next_mode
          in
          if cfg.detect_cycles then begin
            let key = state_key cfg.model s.g in
            match Hashtbl.find_opt s.seen key with
            | Some first_visit ->
                s.stopped <-
                  Some
                    (Cycle_detected
                       { first_visit; period = s.steps - first_visit })
            | None ->
                Hashtbl.replace s.seen key s.steps;
                continue_ ()
          end
          else continue_ ())

let ref_move s u =
  match
    pick_from s.cfg s.rng s.g (naive_candidates s.cfg ~ws:s.ws s.g u)
  with
  | None -> happy_violation s u
  | Some e -> finish_step s u e ~next_mode:Mode_degraded

let fast_step s =
  let cfg = s.cfg in
  (* One context per step, inheriting every table that survived (was kept
     or repaired by) the previous step's patch.  The witness cache survives
     across steps too — probes revalidate. *)
  let ctx = Response.Fast.of_cache s.ws cfg.model s.g s.cache in
  let checking = Sentinel.due cfg.sentinel s.srng in
  let snap =
    if checking && Sentinel.shadows_selection cfg.policy then
      Some (Random.State.copy s.rng)
    else None
  in
  let picked =
    match s.board with
    | Some board ->
        (* Output-sensitive selection.  Bring the board up to date first:
           a full refresh on the first step (every agent's key), then only
           the agents the cache's last patch marked dirty.  Probes and key
           evaluations consume no RNG, so the stream stays in lockstep
           with [select]/[select_fast]. *)
        if not s.board_ready then begin
          for v = 0 to Graph.n s.g - 1 do
            Costboard.update board v (Response.Fast.cost_key ctx v)
          done;
          s.board_ready <- true
        end
        else
          Distcache.iter_dirty
            (fun v -> Costboard.update board v (Response.Fast.cost_key ctx v))
            s.cache;
        Distcache.clear_dirty s.cache;
        Policy.select_sublinear cfg.policy ~rng:s.rng ~ctx ~witness:s.witness
          ~board cfg.model s.g ~last:s.last
    | None ->
        Policy.select_fast cfg.policy ~rng:s.rng ~ctx ~witness:s.witness
          cfg.model s.g ~last:s.last
  in
  let shadow_sel =
    match snap with
    | None -> `Agree
    | Some shadow_rng ->
        s.checked <- s.checked + 1;
        let reference =
          Policy.select cfg.policy ~rng:shadow_rng
            ~ws:(Lazy.force s.shadow_ws) cfg.model s.g ~last:s.last
        in
        if reference = picked then `Agree else `Diverged reference
  in
  match shadow_sel with
  | `Diverged reference -> (
      note_incident s (Sentinel.Selection { fast = picked; reference });
      s.degraded_at <- Some s.steps;
      (* [select] and [select_fast] consume identical RNG draw counts
         (the shuffle alone, probes draw nothing), so continuing with the
         live [rng] follows the reference stream exactly. *)
      match reference with
      | None -> s.stopped <- Some Converged
      | Some u -> ref_move s u)
  | `Agree -> (
      match picked with
      | None -> s.stopped <- Some Converged
      | Some u ->
          if checking then begin
            if snap = None then s.checked <- s.checked + 1;
            let fast = fast_candidates cfg ctx s.witness u in
            let reference =
              naive_candidates cfg ~ws:(Lazy.force s.shadow_ws) s.g u
            in
            if Sentinel.moves_equal fast reference then
              match pick_from cfg s.rng s.g fast with
              | None -> happy_violation s u
              | Some e -> finish_step s u e ~next_mode:Mode_fast
            else begin
              note_incident s (Sentinel.Move_set { agent = u; fast; reference });
              s.degraded_at <- Some s.steps;
              (* caught before any tie-break draw: picking from the
                 reference list keeps the trajectory bit-identical to a
                 pure reference run *)
              match pick_from cfg s.rng s.g reference with
              | None -> happy_violation s u
              | Some e -> finish_step s u e ~next_mode:Mode_degraded
            end
          end
          else
            match choose_move cfg s.rng ctx s.witness s.g u with
            | None -> happy_violation s u
            | Some e -> finish_step s u e ~next_mode:Mode_fast)

(* The degraded remainder: the naive machinery verbatim (cf.
   [Reference.run]) on the live RNG — graceful degradation, not a
   crash. *)
let degraded_step s =
  match
    Policy.select s.cfg.policy ~rng:s.rng ~ws:s.ws s.cfg.model s.g ~last:s.last
  with
  | None -> s.stopped <- Some Converged
  | Some u -> ref_move s u

let stepper_advance s =
  match s.stopped with
  | Some _ -> ()
  | None ->
      if s.steps >= s.cfg.max_steps then s.stopped <- Some Step_limit
      else if
        match s.deadline with
        | None -> false
        | Some d -> Unix.gettimeofday () > d
      then s.stopped <- Some Time_limit
      else (
        match s.mode with
        | Mode_fast -> fast_step s
        | Mode_degraded -> degraded_step s)

let stepper_finish s =
  let reason =
    match s.stopped with
    | Some r -> r
    | None -> invalid_arg "Engine: stepper_finish before the trial stopped"
  in
  let reason =
    (* Whatever the sampling level, always audit the final state. *)
    match reason with
    | Invariant_violation _ -> reason
    | Converged | Cycle_detected _ | Step_limit | Time_limit -> (
        if s.cfg.audit = Audit.Off then reason
        else
          match audit_graph s s.steps with
          | Some v -> Invariant_violation v
          | None -> reason)
  in
  let sentinel =
    {
      Sentinel.checked = s.checked;
      incidents = List.rev s.incidents;
      degraded_at = s.degraded_at;
    }
  in
  let cache_stats = Distcache.stats s.cache in
  Distcache.add_to_totals cache_stats;
  let residency = Distcache.residency s.cache in
  Distcache.add_residency_to_totals residency;
  {
    reason;
    steps = s.steps;
    history = List.rev s.history;
    final = s.g;
    sentinel;
    cache = cache_stats;
    residency;
  }

let run ?rng cfg initial =
  let s = stepper_start ?rng cfg initial in
  while s.stopped = None do
    stepper_advance s
  done;
  stepper_finish s

let converged r = match r.reason with
  | Converged -> true
  | Cycle_detected _ | Step_limit | Time_limit | Invariant_violation _ ->
      false
