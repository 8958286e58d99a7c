(** Improving moves and best responses.

    An agent is {e unhappy} in a state if some admissible strategy change
    strictly decreases her cost; a {e best response} is an admissible change
    achieving the largest decrease (Sec. 1.1).  This module enumerates the
    admissible moves of each game type, evaluates them by applying them
    transiently to the network, and — for the bilateral game — filters out
    moves blocked by a new neighbor who would not consent (Sec. 5).

    Best responses of the Swap, Asymmetric Swap and Greedy Buy games are
    polynomial (checked edge by edge, as in the paper's experiments).  The
    Buy Game and the bilateral game have exponential strategy spaces and
    computing a best response in the BG is NP-hard; the exhaustive
    enumeration here is intended for the paper's gadgets (≤ ~20 candidate
    partners) and refuses larger inputs rather than silently hanging. *)

type evaluated = {
  move : Move.t;
  before : Cost.t;  (** the moving agent's cost in the current state *)
  after : Cost.t;  (** her cost once the move is applied *)
}

val exhaustive_limit : int
(** Maximum number of candidate partners for the exponential games (20). *)

val candidates : Model.t -> Graph.t -> int -> Move.t Seq.t
(** All admissible strategy changes of one agent in the current state, in a
    deterministic order.  Swaps never target the agent or an existing
    neighbor; buys respect the host graph.
    @raise Invalid_argument for [Bg]/[Bilateral] beyond
    {!exhaustive_limit}. *)

val multi_swap_candidates : Model.t -> Graph.t -> int -> Move.t Seq.t
(** [Sg]/[Asg] only: all strategies replacing any number of swappable edges
    at once ([|S*| = |S|], arbitrary intersection; own edges in the ASG,
    all incident edges in the SG) — used to verify the paper's "even with
    multi-swaps" claims.  Same exhaustive limit. *)

val evaluate : ?ws:Paths.Workspace.t -> Model.t -> Graph.t -> Move.t -> evaluated

val feasible : ?ws:Paths.Workspace.t -> Model.t -> Graph.t -> Move.t -> bool
(** Bilateral consent: every {e new} neighbor's cost must not increase
    ([c_G(v) >= c_G'(v)], Sec. 5).  Always [true] for the other games. *)

val blockers : Model.t -> Graph.t -> Move.t -> int list
(** The new neighbors who would block the move (bilateral only; empty
    otherwise). *)

val improving_moves :
  ?ws:Paths.Workspace.t -> ?multi:bool -> Model.t -> Graph.t -> int ->
  evaluated list
(** All feasible moves of the agent that strictly decrease her cost.
    [multi] additionally considers {!multi_swap_candidates}. *)

val best_moves :
  ?ws:Paths.Workspace.t -> ?multi:bool -> Model.t -> Graph.t -> int ->
  evaluated list
(** The improving moves of minimum resulting cost (all ties). *)

val is_unhappy : ?ws:Paths.Workspace.t -> Model.t -> Graph.t -> int -> bool
(** Early-exits on the first improving move found. *)

val unhappy_agents : Model.t -> Graph.t -> int list

val is_stable : Model.t -> Graph.t -> bool
(** No agent has a feasible improving move — a pure Nash equilibrium of the
    underlying game (pairwise stability for the bilateral version). *)

val admissible : Model.t -> Graph.t -> Move.t -> bool
(** Membership in the {!candidates} enumeration of the current state: true
    iff enumerating the move's agent now would generate this move.  Used to
    re-verify cached witness moves after the network has changed. *)

(** Pruned, cache-backed evaluation with results bit-identical to the
    naive functions above — [improving_moves], [best_moves] and
    [is_unhappy] return exactly the same lists and booleans, at a fraction
    of the BFS work.  A context caches single-source distance tables of the
    {e current} network and is only valid until the next applied move: the
    engine creates one per step.  See DESIGN.md §9 for the soundness
    argument. *)
module Fast : sig
  type ctx

  val create : Paths.Workspace.t -> Model.t -> Graph.t -> ctx
  (** The context borrows the workspace for its BFS scratch space; the
      graph must not change (other than transiently through this module)
      while the context is in use.  Tables live in a private, step-scoped
      {!Distcache}. *)

  val of_cache : Paths.Workspace.t -> Model.t -> Graph.t -> Distcache.t -> ctx
  (** Back the context by a persistent cache instead: tables the cache kept
      or repaired across steps are reused instead of refilled.  Sound only
      while the cache's tables are exact for [g] — the engine patches the
      cache after every committed move.
      @raise Invalid_argument on a cache/graph size mismatch. *)

  val cache : ctx -> Distcache.t
  (** The cache backing this context — lets consumers pin the identity and
      versions of the tables an evaluation read (see {!Ncg_core.Witness}). *)

  val set_prefilter : ctx -> bool -> unit
  (** Enable or disable the O(1) triangle-inequality admission caps that
      reject buy/swap candidates whose exact profile provably misses the
      admission budget (on by default).  Either setting evaluates the same
      admitted set — the caps only skip provably over-budget scans — so
      results are identical; [false] restores the uncapped enumeration
      cost profile. *)

  val cost : ctx -> int -> Cost.t
  (** Same value as [Agents.cost], served from the cached table. *)

  val cost_key : ctx -> int -> int
  (** [cost ctx u] as the cross-multiplied integer key [e*p + d*q] that
      {!Cost.compare} orders finite costs by, with [max_int] standing in
      for [Disconnected] (above every finite key, as [Cost.compare] places
      it).  The bucketed max-cost selection sorts on these keys. *)

  val table_fills : ctx -> int
  (** Number of lazily filled tables so far (observability/tests). *)

  val is_unhappy : ctx -> int -> bool
  (** Same boolean as {!val:Response.is_unhappy}. *)

  val find_improving : ctx -> int -> evaluated option
  (** The first improving move in enumeration order, exactly evaluated —
      the witness cached by the engine between steps. *)

  val improving_moves : ctx -> int -> evaluated list
  (** Same list as {!val:Response.improving_moves} (no multi-swaps). *)

  val best_moves : ?prior:Move.t -> ctx -> int -> evaluated list
  (** Same list as {!val:Response.best_moves}.  [prior] seeds the pruning
      threshold with a re-verified witness move; it never changes the
      result, only how much work is skipped. *)

  val revalidate : ctx -> Move.t -> evaluated option
  (** [Some e] iff the move is currently admissible, feasible and strictly
      improving for its agent — the one-evaluation witness check. *)

  (** {2 Fault-injection hooks (tests only)}

      The shadow sentinel (see {!Ncg_core.Sentinel}) claims to catch a
      diverging fast path at run time; these hooks let the chaos suites
      break the fast path on purpose to prove it. *)

  val chaos_corrupt_best_moves : after:int -> unit
  (** Arm the hook: the [after]-th subsequent {!best_moves} result (0 =
      the very next call) is corrupted — a tie is hidden, or a singleton
      duplicated — and the hook disarms itself. *)

  val chaos_reset : unit -> unit
  (** Disarm without firing. *)
end
