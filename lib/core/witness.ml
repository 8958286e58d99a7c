(* A skip certificate proves a verified Buy verdict is still exact without
   re-evaluating it.  The Buy evaluation is a pure function of three
   tracked quantities: the mover's distance table, the target's distance
   table, and the mover's incident edges (they determine admissibility,
   [edge_units] and both cost sides).  The certificate pins the cache that
   served the evaluation and the version counters of all three; a probe
   honors it only when its context is backed by the *same* cache and every
   version still matches.  Certificates therefore self-expire: a fresh
   per-step cache never matches (step-scoped fast path, or callers that
   never patch), and the engine's persistent cache bumps the versions as it
   patches each committed move.  Deletions and swaps read minus-tables
   computed against the whole network, so they never earn a certificate. *)
type cert = {
  cache : Distcache.t;
  table_u : int;
  table_y : int;
  touch_u : int;
}

type t = {
  moves : Move.t option array;
  certs : cert option array;
  mutable hits : int;
  mutable scans : int;
  mutable skips : int;
}

let create n =
  if n < 0 then invalid_arg "Witness.create";
  {
    moves = Array.make (max 1 n) None;
    certs = Array.make (max 1 n) None;
    hits = 0;
    scans = 0;
    skips = 0;
  }

let get t u = t.moves.(u)

let note t u move =
  t.moves.(u) <- Some move;
  t.certs.(u) <- None

let clear t u =
  t.moves.(u) <- None;
  t.certs.(u) <- None

let hits t = t.hits
let scans t = t.scans
let skips t = t.skips

let certify t ctx u = function
  | Move.Buy { target = y; _ } ->
      let c = Response.Fast.cache ctx in
      t.certs.(u) <-
        Some
          {
            cache = c;
            table_u = Distcache.table_version c u;
            table_y = Distcache.table_version c y;
            touch_u = Distcache.touch_version c u;
          }
  | Move.Swap _ | Move.Delete _ | Move.Set_own_edges _ | Move.Set_neighbors _
    ->
      t.certs.(u) <- None

let probe t ctx u =
  let full_scan () =
    t.scans <- t.scans + 1;
    match Response.Fast.find_improving ctx u with
    | Some e ->
        t.moves.(u) <- Some e.Response.move;
        certify t ctx u e.Response.move;
        true
    | None ->
        t.moves.(u) <- None;
        t.certs.(u) <- None;
        false
  in
  match t.moves.(u) with
  | Some m when Move.agent m = u -> (
      let valid =
        match (t.certs.(u), m) with
        | Some cert, Move.Buy { target = y; _ } ->
            let c = Response.Fast.cache ctx in
            cert.cache == c
            && cert.table_u = Distcache.table_version c u
            && cert.table_y = Distcache.table_version c y
            && cert.touch_u = Distcache.touch_version c u
        | _, _ -> false
      in
      if valid then begin
        (* The pinned versions prove the witness is still admissible,
           feasible and strictly improving — same boolean, zero work. *)
        t.hits <- t.hits + 1;
        t.skips <- t.skips + 1;
        true
      end
      else
        match Response.Fast.revalidate ctx m with
        | Some _ ->
            t.hits <- t.hits + 1;
            certify t ctx u m;
            true
        | None ->
            (* Stale witness: the network moved on.  Forget it and fall back
               to the full scan (which re-caches whatever it finds). *)
            t.moves.(u) <- None;
            t.certs.(u) <- None;
            full_scan ())
  | Some _ | None -> full_scan ()
