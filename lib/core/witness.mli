(** Per-agent witness cache for unhappiness probes.

    "Is agent [u] unhappy?" naively costs a full candidate sweep — one BFS
    per admissible move.  But unhappiness usually persists: the improving
    move found last time tends to remain improving a step later.  This
    cache remembers, for each agent, the last improving move seen and
    answers the next probe by re-verifying just that move (one bounded
    evaluation via {!Response.Fast.revalidate}); only when the witness went
    stale does the probe fall back to the full scan — which re-caches the
    first improving move it finds.

    Soundness is unconditional: a witness that re-verifies as admissible,
    feasible and strictly improving {e proves} unhappiness, and a failed
    re-verification never declares the agent happy — it merely forfeits the
    shortcut.  Probes therefore return exactly the same boolean as
    [Response.is_unhappy], which is what the differential suite checks. *)

type t

val create : int -> t
(** One empty slot per agent. *)

val probe : t -> Response.Fast.ctx -> int -> bool
(** Same boolean as [Response.Fast.is_unhappy ctx u], usually at the price
    of a single evaluation.  Updates the cache as a side effect. *)

val get : t -> int -> Move.t option
(** The cached witness, if any — used to seed best-response pruning. *)

val note : t -> int -> Move.t -> unit

val clear : t -> int -> unit
(** Forget an agent's witness — called after that agent moves, since the
    applied move consumed it. *)

val hits : t -> int
(** Probes answered through the cached witness alone (including
    certificate skips). *)

val scans : t -> int
(** Probes that needed a full candidate scan. *)

val skips : t -> int
(** Probes answered with zero evaluations by a still-valid skip
    certificate — a subset of {!hits}.  A certificate pins the identity of
    the {!Distcache} that served a verified Buy verdict together with the
    version counters of everything the verdict read (both distance tables
    and the mover's incidence); it self-expires as soon as any of them
    changes, or when the probing context is backed by a different cache.
    Only the engine's persistent cross-step cache can keep certificates
    alive across moves — and it bumps the versions as it patches. *)
