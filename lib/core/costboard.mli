(** Bucketed priority structure over per-agent integer cost keys.

    The sublinear replacement for the max-cost policy's full sort: agents
    are grouped into buckets by their cross-multiplied cost key
    ({!Ncg_game.Response.Fast.cost_key}), the distinct keys are iterated
    descending, and each visited bucket is probed in ascending per-step
    random rank — exactly the (cost desc, rank asc) order of
    [Policy.select_core], so the selected agent and the probe sequence
    match the full scan bit for bit (see DESIGN.md §17 for the invariant
    argument).  Key updates are O(1) and arrive only for the agents the
    distance cache marked dirty. *)

type t

val create : int -> t
(** A board over agents [0 .. n-1], initially empty: every agent must be
    installed by {!update} (the engine's first-step full refresh) before
    {!select_desc} may run. *)

val n : t -> int

val complete : t -> bool
(** Every agent has an installed key. *)

val key : t -> int -> int option
(** The installed key of agent [v], if any. *)

val update : t -> int -> int -> unit
(** [update t v k] installs or changes agent [v]'s key to [k] — O(1)
    bucket move.  No-op when the key is unchanged. *)

val reset : t -> unit
(** Drop every installed key; the board is incomplete until every agent
    is keyed again. *)

val select_desc : t -> rank:int array -> probe:(int -> bool) -> int option
(** First agent in (key descending, [rank.(v)] ascending) order whose
    [probe] returns [true] — identical to probing the full sort of
    [Policy.select_core] in order.  Only visited buckets are sorted.
    @raise Invalid_argument if the board is not {!complete}. *)
