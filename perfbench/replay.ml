(* The engine's default fast step, replayed from public calls so the
   traced run can put a span around each layer without touching library
   code.  Covers what the workloads run: best responses, max-cost or
   random-unhappy selection, uniform or prefer-deletion ties, the
   cross-step distance cache and (for max-cost) the cost board, with
   audit and sentinel off.  [Engine.run] on the same configuration is the
   oracle: the workloads compare steps, final graph, cache decisions and
   residency, and a replay that diverges voids its layer numbers. *)

type tie = Prefer_deletion | Uniform

type outcome = Converged | Cycle | Step_limit | Happy_selected

type result = {
  outcome : outcome;
  steps : int;
  final : Graph.t;
  cache : Distcache.stats;
  residency : Distcache.residency;
  witness_hits : int;
  witness_scans : int;
  witness_skips : int;
  table_fills : int;  (* summed over the per-step contexts *)
  best_moves_calls : int;
  board_updates : int;
}

let kind_rank = function
  | Move.Kdelete -> 0
  | Move.Kswap -> 1
  | Move.Kbuy -> 2
  | Move.Kjump -> 3

(* The tie-break draws exactly as the engine's: one [Random.State.int]
   over the surviving candidates, none when there are none. *)
let pick_uniform rng = function
  | [] -> None
  | moves -> Some (List.nth moves (Random.State.int rng (List.length moves)))

let pick tie rng g moves =
  match tie with
  | Uniform -> pick_uniform rng moves
  | Prefer_deletion ->
      let rank (e : Response.evaluated) =
        kind_rank (Move.classify_effect g e.Response.move)
      in
      let best = List.fold_left (fun acc e -> min acc (rank e)) max_int moves in
      pick_uniform rng (List.filter (fun e -> rank e = best) moves)

let state_key model g =
  if Model.uses_ownership model then Canonical.key g else Canonical.unowned_key g

let run ?tr ~policy ~tie ~max_steps ~detect_cycles ?budget ~rng model initial
    =
  let span name f = Span.wrap tr name f in
  let n = Graph.n initial in
  let g = Graph.copy initial in
  let ws = Paths.Workspace.create n in
  let witness = Witness.create n in
  let cache = Distcache.create ?budget n in
  let board =
    match policy with Policy.Max_cost -> Some (Costboard.create n) | _ -> None
  in
  let board_ready = ref false in
  let seen = Hashtbl.create 64 in
  if detect_cycles then Hashtbl.replace seen (state_key model g) 0;
  let steps = ref 0 in
  let last = ref None in
  let stopped = ref None in
  let table_fills = ref 0 in
  let calls = ref 0 in
  let updates = ref 0 in
  let update b ctx v =
    incr updates;
    Costboard.update b v (Response.Fast.cost_key ctx v)
  in
  while !stopped = None do
    if !steps >= max_steps then stopped := Some Step_limit
    else
      span "engine.step" @@ fun () ->
      let ctx = Response.Fast.of_cache ws model g cache in
      Response.Fast.set_prefilter ctx true;
      let picked =
        match board with
        | Some b ->
            span "costboard.refresh" (fun () ->
                if not !board_ready then begin
                  for v = 0 to n - 1 do
                    update b ctx v
                  done;
                  board_ready := true
                end
                else Distcache.iter_dirty (update b ctx) cache;
                Distcache.clear_dirty cache);
            span "policy.select" (fun () ->
                Policy.select_sublinear policy ~rng ~ctx ~witness ~board:b
                  model g ~last:!last)
        | None ->
            span "policy.select" (fun () ->
                Policy.select_fast policy ~rng ~ctx ~witness model g
                  ~last:!last)
      in
      (match picked with
      | None -> stopped := Some Converged
      | Some u -> (
          incr calls;
          let moves =
            span "response.best_moves" (fun () ->
                Response.Fast.best_moves ?prior:(Witness.get witness u) ctx u)
          in
          match pick tie rng g moves with
          | None -> stopped := Some Happy_selected
          | Some e ->
              let move = e.Response.move in
              (* pins exactly where the engine pins: only when a cost
                 board consumes the cache's dirty sets *)
              let pinned =
                match board with
                | None -> []
                | Some _ ->
                    span "distcache.ensure" (fun () ->
                        let touched = Move.touched g move in
                        List.iter
                          (fun v ->
                            ignore (Distcache.ensure cache ~ws g v);
                            Distcache.pin cache v)
                          touched;
                        touched)
              in
              span "move.apply" (fun () ->
                  ignore
                    (Move.apply_observed g move ~on_prim:(fun p ->
                         span "distcache.patch" (fun () ->
                             match p with
                             | Move.Added (a, b) ->
                                 Distcache.note_added cache g a b
                             | Move.Removed (a, b, _) ->
                                 Distcache.note_removed cache g a b))));
              List.iter (Distcache.unpin cache) pinned;
              Witness.clear witness u;
              incr steps;
              if detect_cycles then begin
                let key = state_key model g in
                if Hashtbl.mem seen key then stopped := Some Cycle
                else Hashtbl.replace seen key !steps
              end;
              if !stopped = None then last := Some u));
      table_fills := !table_fills + Response.Fast.table_fills ctx
  done;
  {
    outcome = Option.get !stopped;
    steps = !steps;
    final = g;
    cache = Distcache.stats cache;
    residency = Distcache.residency cache;
    witness_hits = Witness.hits witness;
    witness_scans = Witness.scans witness;
    witness_skips = Witness.skips witness;
    table_fills = !table_fills;
    best_moves_calls = !calls;
    board_updates = !updates;
  }

(* The gate: a replay counts only if it retraced the engine exactly. *)
let agrees (r : result) (e : Engine.result) =
  let outcome_ok =
    match (r.outcome, e.Engine.reason) with
    | Converged, Engine.Converged
    | Cycle, Engine.Cycle_detected _
    | Step_limit, Engine.Step_limit ->
        true
    | _ -> false
  in
  outcome_ok && r.steps = e.Engine.steps
  && Canonical.key r.final = Canonical.key e.Engine.final
  && r.cache = e.Engine.cache
  && r.residency = e.Engine.residency
