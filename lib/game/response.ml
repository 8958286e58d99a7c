module Q = Ncg_rational.Q

type evaluated = { move : Move.t; before : Cost.t; after : Cost.t }

let exhaustive_limit = 20

(* Subsets of [items] as a sequence, smallest first within the natural
   binary-counter order.  |items| is bounded by [exhaustive_limit]. *)
let subsets items =
  let arr = Array.of_list items in
  let k = Array.length arr in
  let count = 1 lsl k in
  Seq.init count (fun mask ->
      let rec collect i acc =
        if i < 0 then acc
        else collect (i - 1) (if mask land (1 lsl i) <> 0 then arr.(i) :: acc else acc)
      in
      collect (k - 1) [])

(* All size-k sublists of [items], generated directly. *)
let rec combinations items size =
  if size = 0 then Seq.return []
  else
    match items with
    | [] -> Seq.empty
    | x :: rest ->
        Seq.append
          (Seq.map (fun c -> x :: c) (combinations rest (size - 1)))
          (fun () -> combinations rest size ())

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1

let check_exhaustive what k =
  if k > exhaustive_limit then
    invalid_arg
      (Printf.sprintf
         "Response: %s strategy space has %d candidate partners (> %d); \
          exhaustive best response refused"
         what k exhaustive_limit)

let swap_targets model g u =
  let host = model.Model.host in
  List.filter
    (fun v -> v <> u && (not (Graph.has_edge g u v)) && Host.allows host u v)
    (Graph.vertices g)

let candidates model g u =
  let host = model.Model.host in
  match model.Model.game with
  | Model.Sg | Model.Asg ->
      let removable =
        if Model.uses_ownership model then Graph.owned_neighbors g u
        else Graph.neighbors g u
      in
      let targets = swap_targets model g u in
      List.to_seq removable
      |> Seq.concat_map (fun x ->
             List.to_seq targets
             |> Seq.map (fun y -> Move.Swap { agent = u; remove = x; add = y }))
  | Model.Gbg ->
      let removable = Graph.owned_neighbors g u in
      let targets = swap_targets model g u in
      let swaps =
        List.to_seq removable
        |> Seq.concat_map (fun x ->
               List.to_seq targets
               |> Seq.map (fun y ->
                      Move.Swap { agent = u; remove = x; add = y }))
      in
      let buys =
        List.to_seq targets
        |> Seq.map (fun y -> Move.Buy { agent = u; target = y })
      in
      let deletes =
        List.to_seq removable
        |> Seq.map (fun x -> Move.Delete { agent = u; target = x })
      in
      Seq.append deletes (Seq.append swaps buys)
  | Model.Bg ->
      (* Partners u may own an edge to: anyone allowed by the host except
         vertices already linked to u by an edge owned elsewhere (a parallel
         edge only ever adds cost, so excluding it loses no improving or
         best-response move). *)
      let partners =
        List.filter
          (fun v ->
            v <> u
            && Host.allows host u v
            && not (Graph.has_edge g u v && not (Graph.owns g u v)))
          (Graph.vertices g)
      in
      check_exhaustive "Buy Game" (List.length partners);
      let current = List.sort compare (Graph.owned_neighbors g u) in
      subsets partners
      |> Seq.filter (fun s -> List.sort compare s <> current)
      |> Seq.map (fun s -> Move.Set_own_edges { agent = u; targets = s })
  | Model.Bilateral ->
      let partners =
        List.filter
          (fun v -> v <> u && Host.allows host u v)
          (Graph.vertices g)
      in
      check_exhaustive "bilateral" (List.length partners);
      let current = List.sort compare (Graph.neighbors g u) in
      subsets partners
      |> Seq.filter (fun s -> List.sort compare s <> current)
      |> Seq.map (fun s -> Move.Set_neighbors { agent = u; targets = s })

(* [candidates] as a direct callback iteration, in exactly the same order.
   The fast scan visits every candidate of an agent thousands of times per
   run; driving the visit with plain nested [List.iter] loops instead of
   forcing a [Seq] of thunks removes the per-candidate closure and sequence
   node allocations, which measurably dominate once the per-candidate
   admission work is O(1).  The exponential games keep the [Seq] path. *)
let multi_swap_candidates model g u =
  let enumerate own make =
    let partners = swap_targets model g u in
    let d = List.length own in
    let p = List.length partners in
    let total =
      List.fold_left
        (fun acc k -> acc + (binomial d k * binomial p k))
        0
        (List.init (d + 1) (fun k -> k))
    in
    if d > 8 || total > 1 lsl 20 then
      invalid_arg
        (Printf.sprintf
           "Response: multi-swap strategy space has %d candidates; \
            exhaustive enumeration refused"
           total);
    (* Keep any subset of the current edges, replace the rest by fresh
       targets: all strategies S* with |S*| = |S|. *)
    subsets own
    |> Seq.concat_map (fun kept ->
           let missing = d - List.length kept in
           combinations partners missing
           |> Seq.map (fun fresh -> kept @ fresh))
    |> Seq.filter (fun targets ->
           List.sort compare targets <> List.sort compare own)
    |> Seq.map make
  in
  match model.Model.game with
  | Model.Asg ->
      enumerate (Graph.owned_neighbors g u) (fun targets ->
          Move.Set_own_edges { agent = u; targets })
  | Model.Sg ->
      (* In the Swap Game every incident edge is swappable, so a multi-swap
         replaces any subset of the agent's incident edges. *)
      enumerate (Graph.neighbors g u) (fun targets ->
          Move.Set_neighbors { agent = u; targets })
  | Model.Gbg | Model.Bg | Model.Bilateral ->
      invalid_arg "Response.multi_swap_candidates: (A)SG only"

let evaluate ?ws model g move =
  let u = Move.agent move in
  let cost_of g u =
    match ws with
    | Some ws -> Agents.cost_ws ws model g u
    | None -> Agents.cost model g u
  in
  let before = cost_of g u in
  let after = Move.with_applied g move (fun g -> cost_of g u) in
  { move; before; after }

let blockers model g move =
  match (model.Model.game, move) with
  | Model.Bilateral, Move.Set_neighbors { agent; targets } ->
      let old = Graph.neighbors g agent in
      let added = List.filter (fun v -> not (List.mem v old)) targets in
      if added = [] then []
      else begin
        let unit_price = Model.unit_price model in
        let before = List.map (fun v -> (v, Agents.cost model g v)) added in
        Move.with_applied g move (fun g ->
            List.filter_map
              (fun (v, before_cost) ->
                let after_cost = Agents.cost model g v in
                if Cost.le ~unit_price after_cost before_cost then None
                else Some v)
              before)
      end
  | _, _ -> []

let feasible ?ws:_ model g move = blockers model g move = []

let improving_moves ?ws ?(multi = false) model g u =
  let unit_price = Model.unit_price model in
  let base = candidates model g u in
  let all =
    if multi then Seq.append base (multi_swap_candidates model g u) else base
  in
  Seq.filter_map
    (fun move ->
      if not (feasible model g move) then None
      else
        let e = evaluate ?ws model g move in
        if Cost.lt ~unit_price e.after e.before then Some e else None)
    all
  |> List.of_seq

let best_moves ?ws ?multi model g u =
  let unit_price = Model.unit_price model in
  match improving_moves ?ws ?multi model g u with
  | [] -> []
  | first :: _ as all ->
      let best =
        List.fold_left
          (fun acc e ->
            if Cost.lt ~unit_price e.after acc then e.after else acc)
          first.after all
      in
      List.filter (fun e -> Cost.equal ~unit_price e.after best) all

let is_unhappy ?ws model g u =
  let unit_price = Model.unit_price model in
  let before =
    match ws with
    | Some ws -> Agents.cost_ws ws model g u
    | None -> Agents.cost model g u
  in
  let improving move =
    feasible model g move
    &&
    let after = Move.with_applied g move (fun g ->
        match ws with
        | Some ws -> Agents.cost_ws ws model g u
        | None -> Agents.cost model g u)
    in
    Cost.lt ~unit_price after before
  in
  Seq.exists improving (candidates model g u)

let unhappy_agents model g =
  let ws = Paths.Workspace.create (Graph.n g) in
  List.filter (is_unhappy ~ws model g) (Graph.vertices g)

let is_stable model g = unhappy_agents model g = []

(* Membership test for the [candidates] enumeration: accepts a move iff the
   enumeration over the current state would generate it.  Must stay at
   least as strict as [candidates] — the fast path seeds best-response
   thresholds with re-validated witness moves, which is only sound when the
   witness is guaranteed to reappear during the enumeration. *)
let admissible model g move =
  let host = model.Model.host in
  let u = Move.agent move in
  let buy_ok v = v <> u && (not (Graph.has_edge g u v)) && Host.allows host u v in
  match (model.Model.game, move) with
  | (Model.Sg | Model.Asg | Model.Gbg), Move.Swap { remove; add; _ } ->
      buy_ok add
      && (if Model.uses_ownership model then Graph.owns g u remove
          else Graph.has_edge g u remove)
  | Model.Gbg, Move.Buy { target; _ } -> buy_ok target
  | Model.Gbg, Move.Delete { target; _ } -> Graph.owns g u target
  | Model.Bg, Move.Set_own_edges { targets; _ } ->
      let sorted = List.sort_uniq compare targets in
      List.length sorted = List.length targets
      && List.for_all
           (fun v ->
             v <> u
             && Host.allows host u v
             && not (Graph.has_edge g u v && not (Graph.owns g u v)))
           targets
      && sorted <> List.sort compare (Graph.owned_neighbors g u)
  | Model.Bilateral, Move.Set_neighbors { targets; _ } ->
      let sorted = List.sort_uniq compare targets in
      List.length sorted = List.length targets
      && List.for_all (fun v -> v <> u && Host.allows host u v) targets
      && sorted <> List.sort compare (Graph.neighbors g u)
  | ( (Model.Sg | Model.Asg | Model.Gbg | Model.Bg | Model.Bilateral),
      ( Move.Swap _ | Move.Buy _ | Move.Delete _ | Move.Set_own_edges _
      | Move.Set_neighbors _ ) ) ->
      false

(* ------------------------------------------------------------------ *)
(* Fast path                                                           *)
(* ------------------------------------------------------------------ *)

(* The fast evaluator produces results bit-identical to the naive
   functions above (the differential suite pins this), but avoids most of
   their BFS work:

   - a step-scoped cache of single-source distance tables [d_G(v, .)],
     filled lazily (or in parallel by the max-cost policy);
   - buys evaluated exactly in O(n) from two cached tables, no BFS:
     d_{G+uy}(u, v) = min(d_G(u, v), 1 + d_G(y, v));
   - deletions evaluated exactly from one BFS per removable edge, shared
     by every swap removing that same edge;
   - swaps filtered by the sound lower bound
     d_{G-ux+uy}(u, v) >= min(d_{G-ux}(u, v), 1 + d_G(y, v))
     (the right side only shrinks when [d_G] replaces [d_{G-ux}]), with a
     cutoff-bounded exact BFS only for survivors;
   - every exact evaluation bounded by the best admissible cost found so
     far, so hopeless candidates abort their BFS early. *)
module Fast = struct
  (* Memoized per-target buy-profile knowledge: either the exact profile,
     or a proved lower bound on the active mode's aggregate (the partial
     sum where a budget-bounded merge bailed out) — sound to reject any
     budget below it, recomputed if a larger budget ever asks. *)
  type buy_entry = Full of Paths.profile | Lb of int

  type ctx = {
    model : Model.t;
    g : Graph.t;
    ws : Paths.Workspace.t;
    unit_price : Q.t;
    cache : Distcache.t;  (* d_G(v, .), -1 = unreachable *)
    mutable table_fills : int;
    mutable prefilter : bool;
    mutable profile_memo : int * buy_entry option array;
        (* the last scan's agent and its per-target buy-profile memo.
           Tables never change while a ctx is alive (transient evaluations
           restore the graph), so consecutive scans of the same agent —
           the mover's unhappiness probe followed by its best-response
           scan — share one memo instead of recomputing every profile. *)
  }

  let of_cache ws model g cache =
    if Distcache.n cache <> Graph.n g then
      invalid_arg "Response.Fast.of_cache: cache size mismatch";
    {
      model;
      g;
      ws;
      unit_price = Model.unit_price model;
      cache;
      table_fills = 0;
      prefilter = true;
      profile_memo = (-1, [||]);
    }

  let create ws model g = of_cache ws model g (Distcache.create (Graph.n g))
  let cache ctx = ctx.cache
  let set_prefilter ctx on = ctx.prefilter <- on
  let table_fills ctx = ctx.table_fills

  let table ctx v =
    match Distcache.get ctx.cache v with
    | Some d -> d
    | None ->
        ctx.table_fills <- ctx.table_fills + 1;
        Distcache.ensure ctx.cache ~ws:ctx.ws ctx.g v

  let profile_of_dists dist =
    let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
    Array.iter
      (fun d ->
        if d >= 0 then begin
          incr reached;
          sum := !sum + d;
          if d > !ecc then ecc := d
        end)
      dist;
    { Paths.reached = !reached; sum = !sum; ecc = !ecc }

  let cost ctx u =
    ignore (table ctx u);
    match ctx.model.Model.dist_mode with
    | Model.Sum ->
        (* the cost board refreshes every dirty agent's key each step:
           read the incrementally maintained aggregates instead of
           forcing an O(n) profile rescan per repaired row *)
        let reached, sum = Distcache.sum_profile ctx.cache u in
        if reached < Graph.n ctx.g then Cost.disconnected
        else
          Cost.connected
            ~edge_units:(Model.edge_units ctx.model ctx.g u)
            ~dist:sum
    | Model.Max ->
        Agents.of_profile ctx.model ctx.g u
          (Distcache.profile ctx.cache u)
          ~with_edges:true

  (* The agent's current cost as the cross-multiplied integer key the
     selection layer buckets on: [e*p + d*q] (exactly what {!Cost.compare}
     compares), with [max_int] for Disconnected (which {!Cost.compare}
     places above every finite cost). *)
  let cost_key ctx u =
    match cost ctx u with
    | Cost.Disconnected -> max_int
    | Cost.Connected { edge_units; dist } ->
        let { Q.num; den } = ctx.unit_price in
        (edge_units * num) + (dist * den)

  (* Admission thresholds are cross-multiplied integer costs
     ([e * num + d * den], cf. [Cost.compare]); [None] admits any finite
     cost (the mover is currently disconnected, so any reconnecting move
     improves). *)
  let cross ctx = function
    | Cost.Disconnected -> None
    | Cost.Connected { edge_units; dist } ->
        let { Q.num; den } = ctx.unit_price in
        Some ((edge_units * num) + (dist * den))

  let improve_threshold ctx before =
    match cross ctx before with None -> None | Some c -> Some (c - 1)

  (* Largest distance a candidate paying [edge_units] may have while still
     meeting the threshold. *)
  let dist_budget ctx ~edge_units threshold =
    match threshold with
    | None -> `Any
    | Some t ->
        let { Q.num; den } = ctx.unit_price in
        let b = t - (edge_units * num) in
        if b < 0 then `Reject else `At_most (b / den)

  let bound_of ctx budget =
    match ctx.model.Model.dist_mode with
    | Model.Sum -> Paths.Workspace.Sum_at_most budget
    | Model.Max -> Paths.Workspace.Ecc_at_most budget

  (* Exact evaluation by transient application, with the BFS aborted as
     soon as the candidate provably misses the threshold. *)
  let evaluate_bounded ctx move ~before ~threshold =
    Move.with_applied ctx.g move (fun g ->
        let u = Move.agent move in
        let edge_units = Model.edge_units ctx.model g u in
        match dist_budget ctx ~edge_units threshold with
        | `Reject -> None
        | `Any ->
            let p = Paths.Workspace.profile ctx.ws g u in
            if p.Paths.reached < Graph.n g then None
            else
              Some
                {
                  move;
                  before;
                  after = Agents.of_profile ctx.model g u p ~with_edges:true;
                }
        | `At_most budget -> (
            match
              Paths.Workspace.profile_bounded ctx.ws g u (bound_of ctx budget)
            with
            | None -> None
            | Some p ->
                if p.Paths.reached < Graph.n g then None
                else
                  Some
                    {
                      move;
                      before;
                      after =
                        Agents.of_profile ctx.model g u p ~with_edges:true;
                    }))

  (* Exact distance profile after [u] buys the edge {u, y}: a shortest
     path in G + uy either avoids the new edge or starts with it.  [u]'s
     table is pinned while [y]'s is ensured — the fill may evict under a
     memory budget, and an unpinned [du] buffer could be recycled. *)
  (* The fast path only ever reads the active distance mode's aggregate
     out of a buy profile (plus [reached]) — [admit] and the swap lower
     bound both switch on [dist_mode] — so the other aggregate is left 0
     rather than computed.  When both endpoint tables reach every vertex
     (the overwhelmingly common connected case, read off their cached
     profiles in O(1)) the merge loop drops the per-element sign checks. *)
  let buy_dist_profile_uncached ctx u y =
    let du = table ctx u in
    Distcache.pin ctx.cache u;
    let dy = table ctx y in
    let n = Intvec.dim du in
    let ru, _ = Distcache.sum_profile ctx.cache u
    and ry, _ = Distcache.sum_profile ctx.cache y in
    let result =
      if ru = n && ry = n then
        match ctx.model.Model.dist_mode with
        | Model.Sum ->
            let sum = ref 0 in
            for v = 0 to n - 1 do
              let a = Intvec.unsafe_get du v and b = Intvec.unsafe_get dy v in
              sum := !sum + (if a <= b + 1 then a else b + 1)
            done;
            { Paths.reached = n; sum = !sum; ecc = 0 }
        | Model.Max ->
            let ecc = ref 0 in
            for v = 0 to n - 1 do
              let a = Intvec.unsafe_get du v and b = Intvec.unsafe_get dy v in
              let d = if a <= b + 1 then a else b + 1 in
              if d > !ecc then ecc := d
            done;
            { Paths.reached = n; sum = 0; ecc = !ecc }
      else begin
        let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
        for v = 0 to n - 1 do
          let a = Intvec.unsafe_get du v and b = Intvec.unsafe_get dy v in
          let d =
            if a < 0 then (if b < 0 then -1 else b + 1)
            else if b < 0 then a
            else if a <= b + 1 then a
            else b + 1
          in
          if d >= 0 then begin
            incr reached;
            sum := !sum + d;
            if d > !ecc then ecc := d
          end
        done;
        { Paths.reached = !reached; sum = !sum; ecc = !ecc }
      end
    in
    Distcache.unpin ctx.cache u;
    result

  (* Lower bound on the distance profile after the swap removing {u, x}
     (exact table [du_minus]) and adding {u, y}: [d_G(y, v)] only
     underestimates [d_{G-ux}(y, v)].  [None] means some vertex is
     unreachable both ways — then it provably stays unreachable after the
     swap and the candidate can be discarded outright. *)
  let swap_dist_lb du_minus (dy : Intvec.t) =
    let n = Array.length du_minus in
    let sum = ref 0 and ecc = ref 0 in
    let disconnected = ref false in
    let v = ref 0 in
    while (not !disconnected) && !v < n do
      let a = du_minus.(!v) and b = Intvec.unsafe_get dy !v in
      let d =
        if a < 0 then (if b < 0 then -1 else b + 1)
        else if b < 0 then a
        else if a <= b + 1 then a
        else b + 1
      in
      if d < 0 then disconnected := true
      else begin
        sum := !sum + d;
        if d > !ecc then ecc := d
      end;
      incr v
    done;
    if !disconnected then None else Some (!sum, !ecc)

  (* {2 Triangle-inequality admission caps}

     Adding an edge from the scan source to a target [y] at level
     [k = d(y)] can shrink vertex [v]'s distance to at most
     [min (d v) (|d v - k| + 1)]: a path through the new edge must first
     reach its far endpoint, and [d(y, v) >= |d v - k|].  Summed over the
     component this caps the total Sum-distance gain at

       cap(k) = Σ_{v : 2 d(v) > k + 1} min (k - 1) (2 d(v) - k - 1)

     and the eccentricity gain at [k - 1].  The caps depend only on the
     level histogram of the base table, so one O(n + ecc²) pass per base
     table buys an O(1) reject test per candidate: when even the capped
     profile misses the admission budget, the exact profile provably does
     too, so the admitted set — and hence every trajectory — is unchanged.
     Gated by [ctx.prefilter] (the engine's output-sensitive step loop);
     the historical full-scan baseline keeps the uncapped enumeration. *)
  type gain_caps = {
    gc_sum : int;  (* Σ d(v) over the (single) component *)
    gc_ecc : int;
    gc_cap : int array;  (* indexed by target level k, valid 1..ecc *)
  }

  (* [None] when some vertex is unreachable from the base source — the cap
     argument only reasons within one component. *)
  let gain_caps ~n get =
    let ecc = ref 0 and unreachable = ref 0 and sum = ref 0 in
    for v = 0 to n - 1 do
      let d = get v in
      if d < 0 then incr unreachable
      else begin
        sum := !sum + d;
        if d > !ecc then ecc := d
      end
    done;
    if !unreachable > 0 then None
    else begin
      let ecc = !ecc in
      let hist = Array.make (ecc + 1) 0 in
      for v = 0 to n - 1 do
        hist.(get v) <- hist.(get v) + 1
      done;
      let cap = Array.make (ecc + 1) 0 in
      for k = 1 to ecc do
        let acc = ref 0 in
        for l = (k / 2) + 1 to ecc do
          acc := !acc + (hist.(l) * min (k - 1) ((2 * l) - k - 1))
        done;
        cap.(k) <- !acc
      done;
      Some { gc_sum = !sum; gc_ecc = ecc; gc_cap = cap }
    end

  (* [true] when no candidate at level [k] can meet [budget] even with the
     maximal capped gain.  Levels outside [1..ecc] never reject. *)
  let caps_reject ctx caps ~k ~budget =
    k >= 1
    && k <= caps.gc_ecc
    &&
    match ctx.model.Model.dist_mode with
    | Model.Sum -> caps.gc_sum - caps.gc_cap.(k) > budget
    | Model.Max -> caps.gc_ecc - (k - 1) > budget

  (* Per-agent scan state: the agent's current cost and edge units, plus
     the lazily filled [d_{G-ux}(u, .)] tables, one per removable edge,
     shared by the deletion and all swaps removing that edge, and the
     lazily computed admission caps for the base and minus tables. *)
  type scan = {
    ctx : ctx;
    u : int;
    before : Cost.t;
    base_units : int;
    mutable minus : (int * int array) list;
    mutable base_caps : gain_caps option option;
    mutable minus_caps : (int * gain_caps option) list;
    mutable buy_profiles : buy_entry option array;
        (* per target, memoized for the scan: the graph is unchanged while
           a scan runs (minus-table evaluations restore it), so the buy
           profile of a target is scan-constant.  Lazily sized; [[||]]
           until the first lookup. *)
    mutable budget_memo :
      (int option * int * [ `Any | `At_most of int | `Reject ]) option;
        (* [dist_budget] of the last (threshold, edge_units) pair seen:
           every swap candidate shares one [edge_units] and the threshold
           only moves when a better move is admitted, so this one-slot
           memo answers almost every candidate without re-deriving (or
           re-boxing) the budget.  Keyed on the threshold's physical
           identity — a fresh admit always builds a fresh option block. *)
    mutable suffix_lb : (int * int array) list;
        (* per target level [k]: suffix sums of the per-vertex buy-profile
           lower bound [min (d v) (|k - d v| + 1)] over the base table —
           lets the budget-bounded merge bail as soon as the running sum
           plus the remaining vertices' proved minimum crosses the budget.
           One O(n) pass per distinct level (at most the base
           eccentricity, small in the low-diameter graphs the caps are
           weak on). *)
  }

  let make_scan ctx u =
    let buy_profiles =
      match ctx.profile_memo with a, memo when a = u -> memo | _ -> [||]
    in
    {
      ctx;
      u;
      before = cost ctx u;
      base_units = Model.edge_units ctx.model ctx.g u;
      minus = [];
      base_caps = None;
      minus_caps = [];
      buy_profiles;
      budget_memo = None;
      suffix_lb = [];
    }

  let ensure_profiles s =
    if Array.length s.buy_profiles = 0 then begin
      s.buy_profiles <- Array.make (Graph.n s.ctx.g) None;
      s.ctx.profile_memo <- (s.u, s.buy_profiles)
    end

  let buy_dist_profile s y =
    ensure_profiles s;
    match s.buy_profiles.(y) with
    | Some (Full p) -> p
    | Some (Lb _) | None ->
        let p = buy_dist_profile_uncached s.ctx s.u y in
        s.buy_profiles.(y) <- Some (Full p);
        p

  let aggregate ctx (p : Paths.profile) =
    match ctx.model.Model.dist_mode with
    | Model.Sum -> p.Paths.sum
    | Model.Max -> p.Paths.ecc

  let suffix_lb s du k =
    match List.assoc_opt k s.suffix_lb with
    | Some a -> a
    | None ->
        let n = Intvec.dim du in
        let a = Array.make (n + 1) 0 in
        for v = n - 1 downto 0 do
          let d = Intvec.unsafe_get du v in
          let diff = abs (k - d) + 1 in
          a.(v) <- a.(v + 1) + (if d <= diff then d else diff)
        done;
        s.suffix_lb <- (k, a) :: s.suffix_lb;
        a

  (* [Some p] with the exact buy profile iff buying {u, y} reaches every
     vertex and keeps the active mode's aggregate within [budget];
     [None] is a proved rejection.  Unlike {!buy_dist_profile} the merge
     loop bails out as soon as the running aggregate crosses the budget
     — most candidates die long before the end of the row — and the
     partial aggregate is memoized as a {!Lb} lower bound, which rejects
     later queries in O(1) (thresholds only tighten over a scan, so
     budgets only shrink; the rare larger-budget query recomputes). *)
  let buy_admissible s y ~budget =
    ensure_profiles s;
    let ctx = s.ctx in
    let n = Graph.n ctx.g in
    match s.buy_profiles.(y) with
    | Some (Full p) ->
        if p.Paths.reached < n || aggregate ctx p > budget then None
        else Some p
    | Some (Lb l) when l > budget -> None
    | Some (Lb _) | None ->
        let du = table ctx s.u in
        Distcache.pin ctx.cache s.u;
        let dy = table ctx y in
        let ru, _ = Distcache.sum_profile ctx.cache s.u
        and ry, _ = Distcache.sum_profile ctx.cache y in
        let result =
          if ru = n && ry = n then
            match ctx.model.Model.dist_mode with
            | Model.Sum ->
                (* Bail as soon as the running sum plus the remaining
                   vertices' proved minimum (d_G(y, v) >= |d(y) - d(v)|,
                   so the merged distance is >= min (d v) (|k - d v| + 1))
                   crosses the budget: hopeless candidates die after a
                   short prefix instead of at the end of the row. *)
                let sfx = suffix_lb s du (Intvec.unsafe_get du y) in
                let sum = ref 0 and v = ref 0 and over = ref false in
                while (not !over) && !v < n do
                  if !sum + Array.unsafe_get sfx !v > budget then
                    over := true
                  else begin
                    let a = Intvec.unsafe_get du !v
                    and b = Intvec.unsafe_get dy !v in
                    sum := !sum + (if a <= b + 1 then a else b + 1);
                    incr v
                  end
                done;
                if !over then begin
                  s.buy_profiles.(y) <- Some (Lb (!sum + sfx.(!v)));
                  None
                end
                else if !sum > budget then begin
                  s.buy_profiles.(y) <- Some (Lb !sum);
                  None
                end
                else begin
                  let p = { Paths.reached = n; sum = !sum; ecc = 0 } in
                  s.buy_profiles.(y) <- Some (Full p);
                  Some p
                end
            | Model.Max ->
                let ecc = ref 0 and v = ref 0 in
                while !ecc <= budget && !v < n do
                  let a = Intvec.unsafe_get du !v
                  and b = Intvec.unsafe_get dy !v in
                  let d = if a <= b + 1 then a else b + 1 in
                  if d > !ecc then ecc := d;
                  incr v
                done;
                if !ecc > budget then begin
                  s.buy_profiles.(y) <- Some (Lb !ecc);
                  None
                end
                else begin
                  let p = { Paths.reached = n; sum = 0; ecc = !ecc } in
                  s.buy_profiles.(y) <- Some (Full p);
                  Some p
                end
          else begin
            (* some endpoint row has unreachable vertices: rare, keep the
               exact sign-checked merge and test the result *)
            let p = buy_dist_profile_uncached ctx s.u y in
            s.buy_profiles.(y) <- Some (Full p);
            if p.Paths.reached < n || aggregate ctx p > budget then None
            else Some p
          end
        in
        Distcache.unpin ctx.cache s.u;
        result

  let base_caps s =
    match s.base_caps with
    | Some c -> c
    | None ->
        let du = table s.ctx s.u in
        let c = gain_caps ~n:(Intvec.dim du) (Intvec.get du) in
        s.base_caps <- Some c;
        c

  let minus_caps s x d =
    match List.assoc_opt x s.minus_caps with
    | Some c -> c
    | None ->
        let c = gain_caps ~n:(Array.length d) (Array.get d) in
        s.minus_caps <- (x, c) :: s.minus_caps;
        c

  let minus_table s x =
    match List.assoc_opt x s.minus with
    | Some d -> d
    | None ->
        let g = s.ctx.g in
        let o = Graph.owner g s.u x in
        Graph.remove_edge g s.u x;
        let d =
          Fun.protect
            ~finally:(fun () -> Graph.add_edge g ~owner:o s.u x)
            (fun () -> Paths.Workspace.distances s.ctx.ws g s.u)
        in
        s.minus <- (x, d) :: s.minus;
        d

  (* Admit an exactly known profile against the budget. *)
  let admit s move ~edge_units p ~budget =
    if p.Paths.reached < Graph.n s.ctx.g then None
    else
      let dist =
        match s.ctx.model.Model.dist_mode with
        | Model.Sum -> p.Paths.sum
        | Model.Max -> p.Paths.ecc
      in
      let ok = match budget with `Any -> true | `At_most b -> dist <= b in
      if ok then
        Some
          { move; before = s.before; after = Cost.connected ~edge_units ~dist }
      else None

  (* [Some e] iff the candidate's exact cost meets [threshold]; every
     admitted evaluation is exact, every rejection is proved. *)
  let dist_budget_memo s ~edge_units threshold =
    match s.budget_memo with
    | Some (t, eu, b) when t == threshold && eu = edge_units -> b
    | _ ->
        let b = dist_budget s.ctx ~edge_units threshold in
        s.budget_memo <- Some (threshold, edge_units, b);
        b

  (* The per-shape candidate tests below take the candidate as bare ints
     and only allocate the [Move.t] record on the (rare) paths that
     survive the O(1) rejections: the scan visits thousands of
     candidates per step and the constructor-per-candidate allocation
     was a measurable share of the step loop's minor-GC pressure. *)

  let try_buy s ~y ~threshold =
    let ctx = s.ctx in
    let edge_units = s.base_units + 1 in
    match dist_budget_memo s ~edge_units threshold with
    | `Reject -> None
    | `Any ->
        admit s
          (Move.Buy { agent = s.u; target = y })
          ~edge_units (buy_dist_profile s y) ~budget:`Any
    | `At_most b as budget ->
        if not ctx.prefilter then
          admit s
            (Move.Buy { agent = s.u; target = y })
            ~edge_units (buy_dist_profile s y) ~budget
        else
          let capped =
            match base_caps s with
            | None -> false
            | Some caps ->
                caps_reject ctx caps
                  ~k:(Intvec.get (table ctx s.u) y)
                  ~budget:b
          in
          if capped then None
          else (
            match buy_admissible s y ~budget:b with
            | None -> None
            | Some p ->
                admit s
                  (Move.Buy { agent = s.u; target = y })
                  ~edge_units p ~budget)

  let try_delete s ~x ~threshold =
    let edge_units = s.base_units - 1 in
    match dist_budget_memo s ~edge_units threshold with
    | `Reject -> None
    | (`Any | `At_most _) as budget ->
        admit s
          (Move.Delete { agent = s.u; target = x })
          ~edge_units
          (profile_of_dists (minus_table s x))
          ~budget

  let try_swap s ~x ~y ~threshold =
    let ctx = s.ctx in
    match dist_budget_memo s ~edge_units:s.base_units threshold with
    | `Reject -> None
    | `Any ->
        evaluate_bounded ctx
          (Move.Swap { agent = s.u; remove = x; add = y })
          ~before:s.before ~threshold
    | `At_most budget -> (
        (* The swap's distance profile is pointwise >= the pure buy
           profile of the same target — the removal only lengthens
           paths — so a target whose buy distance already misses the
           budget is out.  O(n) once per target (memoized), amortized
           O(1) over the removable edges; checked before the minus
           table so an edge whose every target dies here never pays
           its O(m) removal BFS. *)
        let buy_lb_rejected =
          ctx.prefilter
          && ((match base_caps s with
              | Some caps ->
                  (* swap profile >= buy profile >= caps lower bound:
                     the O(1) test that guards the buy branch is sound
                     here too, before the O(n) merge *)
                  caps_reject ctx caps
                    ~k:(Intvec.get (table ctx s.u) y)
                    ~budget
              | None -> false)
             || buy_admissible s y ~budget = None)
        in
        if buy_lb_rejected then None
        else
          let d = minus_table s x in
          let rejected =
            ctx.prefilter
            &&
            match minus_caps s x d with
            | Some caps -> caps_reject ctx caps ~k:d.(y) ~budget
            | None ->
                (* removing {u, x} disconnects: a target still
                   reachable from [u] in G - ux leaves the far side
                   unreachable after the swap, so the candidate
                   cannot be admitted *)
                d.(y) >= 0
          in
          if rejected then None
          else
            match swap_dist_lb d (table ctx y) with
            | None -> None
            | Some (sum_lb, ecc_lb) ->
                let lb =
                  match ctx.model.Model.dist_mode with
                  | Model.Sum -> sum_lb
                  | Model.Max -> ecc_lb
                in
                if lb > budget then None
                else
                  evaluate_bounded ctx
                    (Move.Swap { agent = s.u; remove = x; add = y })
                    ~before:s.before ~threshold)

  let try_candidate s move ~threshold =
    let ctx = s.ctx in
    match move with
    | Move.Buy { target = y; _ } -> try_buy s ~y ~threshold
    | Move.Delete { target = x; _ } -> try_delete s ~x ~threshold
    | Move.Swap { remove = x; add = y; _ } -> try_swap s ~x ~y ~threshold
    | Move.Set_own_edges _ | Move.Set_neighbors _ ->
        if feasible ctx.model ctx.g move then
          evaluate_bounded ctx move ~before:s.before ~threshold
        else None

  (* Fused scan walk: same enumeration order as {!iter_candidates}, but
     candidates reach the split helpers as bare ints — the inner target
     loop runs over an array with no per-candidate closure or [Move.t]
     allocation. *)
  let walk_candidates ctx u ~delete ~swap ~buy ~fallback =
    let model = ctx.model and g = ctx.g in
    match model.Model.game with
    | Model.Sg | Model.Asg ->
        let removable =
          if Model.uses_ownership model then Graph.owned_neighbors g u
          else Graph.neighbors g u
        in
        let targets = Array.of_list (swap_targets model g u) in
        List.iter
          (fun x ->
            for i = 0 to Array.length targets - 1 do
              swap x targets.(i)
            done)
          removable
    | Model.Gbg ->
        let removable = Graph.owned_neighbors g u in
        let targets = Array.of_list (swap_targets model g u) in
        List.iter delete removable;
        List.iter
          (fun x ->
            for i = 0 to Array.length targets - 1 do
              swap x targets.(i)
            done)
          removable;
        for i = 0 to Array.length targets - 1 do
          buy targets.(i)
        done
    | Model.Bg | Model.Bilateral -> Seq.iter fallback (candidates model g u)

  exception Found of evaluated

  let find_improving ctx u =
    let s = make_scan ctx u in
    let threshold = improve_threshold ctx s.before in
    let hit = function
      | Some e -> raise_notrace (Found e)
      | None -> ()
    in
    match
      walk_candidates ctx u
        ~delete:(fun x -> hit (try_delete s ~x ~threshold))
        ~swap:(fun x y -> hit (try_swap s ~x ~y ~threshold))
        ~buy:(fun y -> hit (try_buy s ~y ~threshold))
        ~fallback:(fun m -> hit (try_candidate s m ~threshold))
    with
    | () -> None
    | exception Found e -> Some e

  let is_unhappy ctx u = find_improving ctx u <> None

  let improving_moves ctx u =
    let s = make_scan ctx u in
    let threshold = improve_threshold ctx s.before in
    let acc = ref [] in
    let keep = function Some e -> acc := e :: !acc | None -> () in
    walk_candidates ctx u
      ~delete:(fun x -> keep (try_delete s ~x ~threshold))
      ~swap:(fun x y -> keep (try_swap s ~x ~y ~threshold))
      ~buy:(fun y -> keep (try_buy s ~y ~threshold))
      ~fallback:(fun m -> keep (try_candidate s m ~threshold));
    List.rev !acc

  let revalidate ctx move =
    if not (admissible ctx.model ctx.g move) then None
    else if not (feasible ctx.model ctx.g move) then None
    else
      let s = make_scan ctx (Move.agent move) in
      try_candidate s move ~threshold:(improve_threshold ctx s.before)

  (* Fault-injection hook for the shadow sentinel's own tests: when armed,
     the [after]-th subsequent [best_moves] call returns a deliberately
     corrupted list (a hidden tie, or a duplicated singleton) and the hook
     disarms itself.  Never armed outside the chaos/sentinel suites. *)
  let chaos_countdown = ref None

  let chaos_corrupt_best_moves ~after =
    if after < 0 then invalid_arg "Response.Fast.chaos_corrupt_best_moves";
    chaos_countdown := Some after

  let chaos_reset () = chaos_countdown := None

  let chaos_maybe_corrupt result =
    match !chaos_countdown with
    | None -> result
    | Some k when k > 0 ->
        chaos_countdown := Some (k - 1);
        result
    | Some _ -> (
        chaos_countdown := None;
        match result with
        | [] -> []
        | [ e ] -> [ e; e ]
        | moves ->
            (* hide the final tie — the classic fast-path bug class *)
            let n = List.length moves in
            List.filteri (fun i _ -> i < n - 1) moves)

  let best_moves ?prior ctx u =
    let s = make_scan ctx u in
    let improve = improve_threshold ctx s.before in
    (* Seed the admission threshold with the re-verified witness move:
       [admissible] guarantees the witness reappears in the enumeration
       below, so no tie of the true best response can be pruned. *)
    let seed =
      match prior with
      | Some m
        when admissible ctx.model ctx.g m && feasible ctx.model ctx.g m -> (
          match try_candidate s m ~threshold:improve with
          | Some e -> cross ctx e.after
          | None -> improve)
      | Some _ | None -> improve
    in
    let best = ref [] and threshold = ref seed in
    let keep = function
      | None -> ()
      | Some e ->
          let c =
            match cross ctx e.after with
            | Some c -> c
            | None -> assert false (* admitted costs are finite *)
          in
          (match !best with
          | b :: _ when cross ctx b.after = Some c -> best := e :: !best
          | _ -> best := [ e ]);
          threshold := Some c
    in
    walk_candidates ctx u
      ~delete:(fun x -> keep (try_delete s ~x ~threshold:!threshold))
      ~swap:(fun x y -> keep (try_swap s ~x ~y ~threshold:!threshold))
      ~buy:(fun y -> keep (try_buy s ~y ~threshold:!threshold))
      ~fallback:(fun m -> keep (try_candidate s m ~threshold:!threshold));
    chaos_maybe_corrupt (List.rev !best)
end
