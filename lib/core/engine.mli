(** The network creation process: sequential improving-move dynamics.

    Starting from an initial network [G_0], repeatedly: the move policy
    picks an unhappy agent, that agent performs a best (or any improving)
    move, and the state advances.  The process stops when nobody is
    unhappy (a {e stable network} — a pure Nash equilibrium of the
    underlying game), when a previously visited state recurs (a better- or
    best-response cycle), or when the step budget runs out.

    This engine {e is} the distributed-local-search algorithm whose
    convergence the paper analyses; all the experiments of Sections 3.4 and
    4.2 are [run] under different configurations. *)

type move_rule =
  | Best_response
      (** The mover plays a best possible move; ties resolved by
          {!tie_break}.  Used by every experiment in the paper. *)
  | Any_improving
      (** The mover plays a uniformly random improving move — better-
          response dynamics, the widest notion under which FIPG
          membership is defined. *)

type tie_break =
  | Uniform  (** uniformly random among the tied best moves (Sec. 3.4.1) *)
  | Prefer_deletion
      (** deletions before swaps before additions (Sec. 4.2.1), remaining
          ties uniform *)
  | First_candidate  (** deterministic: first in enumeration order *)

type config = {
  model : Model.t;
  policy : Policy.t;
  move_rule : move_rule;
  tie_break : tie_break;
  max_steps : int;
  detect_cycles : bool;
      (** remember every visited state (exact, labelled) and stop on
          recurrence.  Costs memory proportional to steps. *)
  record_history : bool;
  audit : Audit.level;
      (** invariant auditing; whenever not [Off], the final state is always
          audited and every applied move's cost contract is checked.  If the
          initial network is connected, connectivity is part of the audit
          (improving moves cannot disconnect a connected network). *)
  sentinel : Sentinel.level;
      (** shadow verification: at sampled steps the engine replays the
          step through the naive machinery and compares.  On divergence
          the trial records a typed incident and {e degrades} — it
          finishes on the reference path, bit-identical to a pure
          {!Reference.run} (see {!Sentinel} for the soundness argument).
          Healthy runs are unaffected at any level. *)
  time_budget : float option;
      (** wall-clock budget in seconds for this run; exceeding it stops the
          run with {!Time_limit}. *)
  cache_budget : int option;
      (** cap on resident distance tables ({!Distcache} LRU eviction past
          it); [None] keeps every filled table resident.  A budget changes
          when tables are recomputed, never their values, so trajectories
          are identical under any budget.  At n = 10,000 an unbounded cache
          is O(n²) resident ints — set a budget for large sweeps. *)
}

val config :
  ?policy:Policy.t ->
  ?move_rule:move_rule ->
  ?tie_break:tie_break ->
  ?max_steps:int ->
  ?detect_cycles:bool ->
  ?record_history:bool ->
  ?audit:Audit.level ->
  ?sentinel:Sentinel.level ->
  ?time_budget:float ->
  ?cache_budget:int ->
  Model.t ->
  config
(** Defaults: max-cost policy, best response, uniform ties, [100 * n + 1000]
    steps, cycle detection off, history on, audit off, sentinel off, no time
    budget, unbounded cache residency. *)

type step = {
  index : int;  (** 0-based position in the run *)
  move : Move.t;
  effect : Move.kind;  (** net effect, for phase statistics *)
  cost_before : Cost.t;  (** the mover's cost before the move *)
  cost_after : Cost.t;
}

type stop_reason =
  | Converged
  | Cycle_detected of { first_visit : int; period : int }
      (** the state after the last step was first seen after step
          [first_visit]; [period] steps separate the two visits *)
  | Step_limit
  | Time_limit  (** the per-run wall-clock budget ran out *)
  | Invariant_violation of Audit.violation
      (** the auditor found a broken invariant, or the policy selected a
          happy agent (the pre-robustness engine crashed on the latter) *)

type result = {
  reason : stop_reason;
  steps : int;  (** number of moves performed *)
  history : step list;  (** chronological; empty unless [record_history] *)
  final : Graph.t;
  sentinel : Sentinel.report;
      (** shadow-verification outcome; {!Sentinel.clean_report} whenever
          the sentinel is off or no checked step diverged *)
  cache : Distcache.stats;
      (** incremental distance-cache decisions over the whole run
          (kept/repaired/rebuilt tables, fresh fills, evictions) *)
  residency : Distcache.residency;
      (** the cache's memory accounting at the end of the run — resident
          and peak table counts/bytes against the configured budget *)
}

val run : ?rng:Random.State.t -> config -> Graph.t -> result
(** Runs the process on a private copy of the initial network.  [rng]
    defaults to a fixed seed, so runs are reproducible by default.

    This is the {e fast} engine: a cross-step {!Distcache} patched after
    every move, witness-cached unhappiness probes, bounded-BFS
    best-response pruning ({!Response.Fast}) and, under {!Policy.Max_cost},
    a bucketed cost board refreshed from the cache's dirty sets.  Its
    trajectories are byte-identical to {!Reference.run} — enforced by the
    differential suite.  The [time_budget] clock starts when [run] is
    called. *)

val converged : result -> bool
