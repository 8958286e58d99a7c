(* Cross-step cache of single-source distance tables, patched after every
   applied move instead of being rebuilt.

   Invariant: whenever [tables.(v) = Some d], [d.(x)] is the exact BFS
   distance from [v] to [x] in the *current* graph ([-1] = unreachable).
   The engine calls [note_added]/[note_removed] immediately after each
   primitive edge change of a committed move; each call either proves the
   table unchanged (keep), repairs the changed region with a
   frontier-bounded incremental BFS, or falls back to a fresh scan when the
   affected set exceeds a threshold.  The cache therefore changes *when*
   distances are computed — never their values — which is what keeps the
   fast engine byte-identical to the reference.

   Keep rules (table [d] = distances from source [v], pre-primitive):

   - insert (a,b): with both endpoints reachable and |d(a) - d(b)| <= 1 the
     new edge joins adjacent-or-equal BFS levels, so no path improves; with
     both unreachable, the edge lies outside v's component entirely.
   - delete (a,b): with d(a) = d(b) the edge connects equals, hence lies on
     no shortest-path DAG; with both unreachable it was outside v's
     component.
   - delete fast-keep: let b be the far endpoint, d(b) = d(a) + 1.  If b
     retains another neighbor w with d(w) = d(b) - 1 the whole table is
     unchanged: any shortest path using {a,b} traverses it from level d(a)
     to level d(b) and can be rerouted through w (whose own shortest path
     cannot use {a,b}, since shortest paths visit strictly increasing
     levels and that edge joins levels d(a)/d(b) — it would have to be its
     final edge, making it b).

   Repairs:

   - insert: only the far side can improve; a decrease-only BFS seeded with
     d(near) + 1 at the far endpoint touches exactly the improved region
     (each vertex enqueues at most once — queue values are nondecreasing,
     so the first improvement is final).
   - delete: compute the affected set level-by-level ("Ramalingam–Reps"
     style): a candidate at level L is affected iff it has no neighbor at
     level L - 1 that survived; candidates of the next level are the
     affected's neighbors at L + 1.  Processing strictly by level makes
     every parent's verdict final before its children ask.  Affected
     vertices are then recomputed by a multi-source Dial scan seeded from
     their non-affected neighbors (no seed anywhere = the deletion
     disconnected them: -1).  If the affected set outgrows [threshold], the
     level structure is degenerating and a fresh BFS is cheaper.

   Dirty sets (the selection layer's feed): every noted primitive also
   classifies ALL n sources — resident or not — as possibly-changed
   ("dirty") or provably-unchanged, using distance symmetry: the distance
   from source v to endpoint a equals the distance from a to v, i.e. row v
   of the matrix can be classified from entry v of the endpoints' own rows.
   The engine pins the two endpoint tables resident before applying a move
   (see [pin]); their pre-primitive rows are snapshotted and the keep rules
   above are evaluated per source in one flat O(n) scan — two word reads
   per agent, no BFS.  If either endpoint row is unavailable the cache
   marks every source dirty, which is always sound.  A source that is not
   dirty kept its entire table, hence its cost profile; the selection layer
   re-evaluates only dirty agents.

   Memory bound: [budget] caps resident tables.  Installing a table past
   the cap evicts the least-recently-used unpinned one (logical clock, not
   wall time, so batched and solo runs see identical eviction sequences).
   Eviction frees no information the graph does not still hold — a refill
   is a fresh BFS, counted in [fills], and bumps the table version so any
   witness certificate minted against the old residency revalidates. *)

type stats = {
  kept : int;
  repaired : int;
  rebuilt : int;
  fills : int;
  evicted : int;
}

let zero_stats = { kept = 0; repaired = 0; rebuilt = 0; fills = 0; evicted = 0 }

type residency = {
  resident : int;
  peak : int;
  budget : int option;
  bytes : int;
  peak_bytes : int;
}

let zero_residency =
  { resident = 0; peak = 0; budget = None; bytes = 0; peak_bytes = 0 }

type t = {
  n : int;
  threshold : int;
  budget : int option;
  tables : Intvec.t option array;
  mutable free_tabs : Intvec.t list;
      (* evicted table buffers, reused by the next install *)
  profiles : Paths.profile option array;
      (* cached per-source profile of tables.(v); invalidated on change *)
  psum : int array;  (* incremental (reached, sum) of tables.(v), valid *)
  preach : int array;  (* iff pvalid.(v): repairs read every overwritten *)
  pvalid : bool array;  (* entry, so the aggregates track in O(changed) *)
  table_ver : int array;
      (* bumped whenever source v's table is installed, repaired or
         rebuilt; never on a keep.  Witness certificates pin these. *)
  touch_ver : int array;
      (* bumped for both endpoints of every noted primitive — the
         incidence of a vertex can only change through such a primitive *)
  (* residency bookkeeping *)
  res_list : int array; (* dense list of sources with resident tables *)
  res_pos : int array; (* position in res_list, or -1 *)
  mutable res_count : int;
  mutable res_peak : int;
  last_use : int array; (* logical-clock stamps driving LRU eviction *)
  mutable clock : int;
  pin_count : int array; (* pinned tables are never evicted *)
  (* dirty set accumulated since [clear_dirty] *)
  dirty_mark : int array; (* stamps *)
  dirty_list : int array;
  mutable dirty_stamp : int;
  mutable dirty_count : int;
  mutable dirty_every : bool;
  snap_a : Intvec.t; (* pre-primitive endpoint rows for classification *)
  snap_b : Intvec.t;
  mutable kept : int;
  mutable repaired : int;
  mutable rebuilt : int;
  mutable fills : int;
  mutable evicted : int;
  (* scratch, reused across repairs *)
  queue : Intvec.t;
  mutable wave : Intvec.t;
  mutable wnext : Intvec.t;
  cand : Intvec.t; (* stamps: candidate-seen marker *)
  aff : Intvec.t; (* stamps: affected marker *)
  mutable stamp : int;
  buckets : int list array; (* Dial buckets; empty outside repair_delete *)
}

let create ?threshold ?budget n =
  if n < 0 then invalid_arg "Distcache.create: negative size";
  let threshold =
    match threshold with
    | Some t -> if t < 0 then invalid_arg "Distcache.create: threshold" else t
    | None -> max 16 (n / 4)
  in
  (match budget with
  | Some b when b < 2 -> invalid_arg "Distcache.create: budget < 2"
  | _ -> ());
  let mk x = Array.make (max 1 n) x in
  let vec x = Intvec.make (max 1 n) x in
  {
    n;
    threshold;
    budget;
    tables = Array.make (max 1 n) None;
    free_tabs = [];
    profiles = Array.make (max 1 n) None;
    psum = mk 0;
    preach = mk 0;
    pvalid = Array.make (max 1 n) false;
    table_ver = mk 0;
    touch_ver = mk 0;
    res_list = mk 0;
    res_pos = mk (-1);
    res_count = 0;
    res_peak = 0;
    last_use = mk 0;
    clock = 0;
    pin_count = mk 0;
    dirty_mark = mk 0;
    dirty_list = mk 0;
    dirty_stamp = 0;
    dirty_count = 0;
    dirty_every = false;
    snap_a = vec 0;
    snap_b = vec 0;
    kept = 0;
    repaired = 0;
    rebuilt = 0;
    fills = 0;
    evicted = 0;
    queue = vec 0;
    wave = vec 0;
    wnext = vec 0;
    cand = vec 0;
    aff = vec 0;
    stamp = 0;
    buckets = Array.make (n + 2) [];
  }

let n t = t.n
let threshold t = t.threshold

let table_bytes t = Intvec.bytes t.snap_a

let residency t =
  {
    resident = t.res_count;
    peak = t.res_peak;
    budget = t.budget;
    bytes = t.res_count * table_bytes t;
    peak_bytes = t.res_peak * table_bytes t;
  }

let touch t v =
  t.clock <- t.clock + 1;
  t.last_use.(v) <- t.clock

let get t v =
  match t.tables.(v) with
  | Some _ as r ->
      touch t v;
      r
  | None -> None

let pin t v = t.pin_count.(v) <- t.pin_count.(v) + 1

let unpin t v =
  if t.pin_count.(v) <= 0 then invalid_arg "Distcache.unpin: not pinned";
  t.pin_count.(v) <- t.pin_count.(v) - 1

(* Dirty set *)

let clear_dirty t =
  t.dirty_stamp <- t.dirty_stamp + 1;
  t.dirty_count <- 0;
  t.dirty_every <- false

let mark_dirty t v =
  if (not t.dirty_every) && t.dirty_mark.(v) <> t.dirty_stamp then begin
    t.dirty_mark.(v) <- t.dirty_stamp;
    t.dirty_list.(t.dirty_count) <- v;
    t.dirty_count <- t.dirty_count + 1
  end

let mark_all_dirty t = t.dirty_every <- true
let dirty_all t = t.dirty_every

let dirty_count t = if t.dirty_every then t.n else t.dirty_count

let iter_dirty f t =
  if t.dirty_every then
    for v = 0 to t.n - 1 do
      f v
    done
  else
    for k = 0 to t.dirty_count - 1 do
      f t.dirty_list.(k)
    done

(* Residency plumbing *)

let res_add t v =
  if t.res_pos.(v) < 0 then begin
    t.res_list.(t.res_count) <- v;
    t.res_pos.(v) <- t.res_count;
    t.res_count <- t.res_count + 1;
    if t.res_count > t.res_peak then t.res_peak <- t.res_count
  end

let res_remove t v =
  let pos = t.res_pos.(v) in
  if pos >= 0 then begin
    let last = t.res_list.(t.res_count - 1) in
    t.res_list.(pos) <- last;
    t.res_pos.(last) <- pos;
    t.res_pos.(v) <- -1;
    t.res_count <- t.res_count - 1
  end

let alloc_table t =
  match t.free_tabs with
  | buf :: rest ->
      t.free_tabs <- rest;
      buf
  | [] -> Intvec.create (max 1 t.n)

(* Drop the LRU unpinned table.  Values are unchanged by eviction — the
   graph still determines them — so the table version is NOT bumped here;
   a later refill bumps it (via [install]), conservatively expiring any
   witness certificate that pinned the evicted residency. *)
let evict_one t =
  let best = ref (-1) and best_use = ref max_int in
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    if t.pin_count.(v) = 0 && t.last_use.(v) < !best_use then begin
      best := v;
      best_use := t.last_use.(v)
    end
  done;
  match !best with
  | -1 -> false (* everything resident is pinned; tolerate transient overage *)
  | v ->
      (match t.tables.(v) with
      | Some buf -> t.free_tabs <- buf :: t.free_tabs
      | None -> ());
      t.tables.(v) <- None;
      t.profiles.(v) <- None;
      t.pvalid.(v) <- false;
      res_remove t v;
      t.evicted <- t.evicted + 1;
      true

let enforce_budget t keep =
  match t.budget with
  | None -> ()
  | Some b ->
      pin t keep;
      let continue_ = ref true in
      while !continue_ && t.res_count > b do
        continue_ := evict_one t
      done;
      unpin t keep

let install t v buf =
  (match t.tables.(v) with
  | Some old when old != buf -> t.free_tabs <- old :: t.free_tabs
  | _ -> ());
  t.tables.(v) <- Some buf;
  t.profiles.(v) <- None;
  t.pvalid.(v) <- false;
  t.table_ver.(v) <- t.table_ver.(v) + 1;
  t.fills <- t.fills + 1;
  res_add t v;
  touch t v;
  enforce_budget t v

let set t v d =
  if Array.length d <> t.n then invalid_arg "Distcache.set: table size";
  let buf =
    match t.tables.(v) with Some old -> old | None -> alloc_table t
  in
  for x = 0 to t.n - 1 do
    Intvec.unsafe_set buf x (Array.unsafe_get d x)
  done;
  install t v buf

let ensure t ~ws g v =
  match t.tables.(v) with
  | Some d ->
      touch t v;
      d
  | None ->
      let buf = alloc_table t in
      Paths.Workspace.distances_into ws g v buf;
      install t v buf;
      buf

let table_version t v = t.table_ver.(v)
let touch_version t v = t.touch_ver.(v)

let stats t =
  {
    kept = t.kept;
    repaired = t.repaired;
    rebuilt = t.rebuilt;
    fills = t.fills;
    evicted = t.evicted;
  }

let profile t v =
  match t.profiles.(v) with
  | Some p -> p
  | None -> (
      match t.tables.(v) with
      | None -> invalid_arg "Distcache.profile: no table"
      | Some dist ->
          let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
          for x = 0 to t.n - 1 do
            let d = Intvec.unsafe_get dist x in
            if d >= 0 then begin
              incr reached;
              sum := !sum + d;
              if d > !ecc then ecc := d
            end
          done;
          let p = { Paths.reached = !reached; sum = !sum; ecc = !ecc } in
          t.profiles.(v) <- Some p;
          t.psum.(v) <- !sum;
          t.preach.(v) <- !reached;
          t.pvalid.(v) <- true;
          p)

(* (reached, sum) without the eccentricity: served from the incremental
   aggregates when the full profile (whose [ecc] a repair cannot patch in
   O(changed)) has been invalidated — the sum-distance fast paths and the
   cost-board refresh never pay an O(n) rescan for a repaired row. *)
let sum_profile t v =
  if t.pvalid.(v) then (t.preach.(v), t.psum.(v))
  else
    let p = profile t v in
    (p.Paths.reached, p.Paths.sum)

let mark_changed t v =
  t.profiles.(v) <- None;
  t.table_ver.(v) <- t.table_ver.(v) + 1

(* Fresh BFS from [v] into the existing table [d] — the fallback path. *)
let rebuild t csr v (d : Intvec.t) =
  let off = Csr.offsets csr and tg = Csr.targets csr in
  for x = 0 to t.n - 1 do
    Intvec.unsafe_set d x (-1)
  done;
  Intvec.set d v 0;
  Intvec.set t.queue 0 v;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Intvec.unsafe_get t.queue !head in
    incr head;
    let du = Intvec.unsafe_get d u in
    for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
      let w = Intvec.unsafe_get tg i in
      if Intvec.unsafe_get d w < 0 then begin
        Intvec.unsafe_set d w (du + 1);
        Intvec.unsafe_set t.queue !tail w;
        incr tail
      end
    done
  done;
  t.rebuilt <- t.rebuilt + 1;
  t.pvalid.(v) <- false;
  mark_changed t v

(* Decrease-only BFS: the inserted edge gives [seed] the new distance
   [seed_dist]; improvements propagate outward in nondecreasing order, so
   each vertex is enqueued at most once and only the improved region is
   touched. *)
let repair_insert t csr v (d : Intvec.t) seed seed_dist =
  let off = Csr.offsets csr and tg = Csr.targets csr in
  let track = t.pvalid.(v) in
  let note old nw =
    if old < 0 then begin
      t.preach.(v) <- t.preach.(v) + 1;
      t.psum.(v) <- t.psum.(v) + nw
    end
    else t.psum.(v) <- t.psum.(v) + nw - old
  in
  if track then note (Intvec.get d seed) seed_dist;
  Intvec.set d seed seed_dist;
  Intvec.set t.queue 0 seed;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Intvec.unsafe_get t.queue !head in
    incr head;
    let du = Intvec.unsafe_get d u in
    for i = Intvec.unsafe_get off u to Intvec.unsafe_get off (u + 1) - 1 do
      let w = Intvec.unsafe_get tg i in
      let dw = Intvec.unsafe_get d w in
      if dw < 0 || dw > du + 1 then begin
        if track then note dw (du + 1);
        Intvec.unsafe_set d w (du + 1);
        Intvec.unsafe_set t.queue !tail w;
        incr tail
      end
    done
  done;
  t.repaired <- t.repaired + 1;
  mark_changed t v

exception Too_many_affected

(* Affected-set computation and recomputation for a deletion whose far
   endpoint [far] (old level d.(far)) lost its last surviving parent. *)
let repair_delete t csr v (d : Intvec.t) far =
  let off = Csr.offsets csr and tg = Csr.targets csr in
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let cand = t.cand and aff = t.aff in
  let aff_count = ref 0 in
  (try
     Intvec.set t.wave 0 far;
     Intvec.set cand far stamp;
     let wc = ref 1 in
     let level = ref (Intvec.get d far) in
     let wave = ref t.wave and next = ref t.wnext in
     while !wc > 0 do
       let nc = ref 0 in
       let w = !wave and nx = !next in
       for k = 0 to !wc - 1 do
         let x = Intvec.unsafe_get w k in
         (* survivor iff some neighbor one level down kept its distance;
            level [!level - 1] verdicts are final by the level ordering *)
         let survives = ref false in
         let i = ref (Intvec.unsafe_get off x) in
         let row_end = Intvec.unsafe_get off (x + 1) in
         while (not !survives) && !i < row_end do
           let y = Intvec.unsafe_get tg !i in
           incr i;
           if Intvec.unsafe_get d y = !level - 1 && Intvec.unsafe_get aff y <> stamp
           then survives := true
         done;
         if not !survives then begin
           Intvec.unsafe_set aff x stamp;
           Intvec.unsafe_set t.queue !aff_count x;
           incr aff_count;
           if !aff_count > t.threshold then raise Too_many_affected;
           for i = Intvec.unsafe_get off x to Intvec.unsafe_get off (x + 1) - 1 do
             let y = Intvec.unsafe_get tg i in
             if Intvec.unsafe_get d y = !level + 1 && Intvec.unsafe_get cand y <> stamp
             then begin
               Intvec.unsafe_set cand y stamp;
               Intvec.unsafe_set nx !nc y;
               incr nc
             end
           done
         end
       done;
       let tmp = !wave in
       wave := !next;
       next := tmp;
       wc := !nc;
       incr level
     done;
     t.wave <- !wave;
     t.wnext <- !next;
     (* Recompute the affected region: Dial's algorithm seeded from each
        affected vertex's best non-affected neighbor.  Unaffected distances
        are already final; affected vertices never seeded and never relaxed
        are disconnected.  The bucket array persists across calls (empty
        outside this function); only the [lo .. hi] range it actually used
        is visited, so the scan is sized by the repair, not by n. *)
     let buckets = t.buckets in
     let maxb = t.n + 1 in
     let track = t.pvalid.(v) in
     let note old nw =
       if old >= 0 && nw >= 0 then t.psum.(v) <- t.psum.(v) + nw - old
       else if old < 0 && nw >= 0 then begin
         t.preach.(v) <- t.preach.(v) + 1;
         t.psum.(v) <- t.psum.(v) + nw
       end
       else if old >= 0 then begin
         (* nw < 0: vertex drops out of the component *)
         t.preach.(v) <- t.preach.(v) - 1;
         t.psum.(v) <- t.psum.(v) - old
       end
     in
     let lo = ref max_int and hi = ref (-1) in
     for k = 0 to !aff_count - 1 do
       let x = Intvec.unsafe_get t.queue k in
       let best = ref max_int in
       for i = Intvec.unsafe_get off x to Intvec.unsafe_get off (x + 1) - 1 do
         let y = Intvec.unsafe_get tg i in
         if
           Intvec.unsafe_get aff y <> stamp
           && Intvec.unsafe_get d y >= 0
           && Intvec.unsafe_get d y + 1 < !best
         then best := Intvec.unsafe_get d y + 1
       done;
       if !best <= maxb then begin
         if track then note (Intvec.unsafe_get d x) !best;
         Intvec.unsafe_set d x !best;
         buckets.(!best) <- x :: buckets.(!best);
         if !best < !lo then lo := !best;
         if !best > !hi then hi := !best
       end
       else begin
         if track then note (Intvec.unsafe_get d x) (-1);
         Intvec.unsafe_set d x (-1)
       end
     done;
     let s = ref !lo in
     while !s <= !hi do
       let bucket = buckets.(!s) in
       buckets.(!s) <- [];
       List.iter
         (fun x ->
           if Intvec.get d x = !s then
             for i = Intvec.unsafe_get off x to Intvec.unsafe_get off (x + 1) - 1 do
               let y = Intvec.unsafe_get tg i in
               let dy = Intvec.unsafe_get d y in
               if
                 Intvec.unsafe_get aff y = stamp
                 && (dy < 0 || dy > !s + 1)
                 && !s + 1 <= maxb
               then begin
                 if track then note dy (!s + 1);
                 Intvec.unsafe_set d y (!s + 1);
                 buckets.(!s + 1) <- y :: buckets.(!s + 1);
                 if !s + 1 > !hi then hi := !s + 1
               end
             done)
         bucket;
       incr s
     done;
     t.repaired <- t.repaired + 1;
     mark_changed t v
   with Too_many_affected ->
     (* The level wave may have left entries in no bucket (buckets are only
        filled after the wave completes), so nothing to clean here. *)
     rebuild t csr v d)

(* Classify ALL n sources as dirty/clean from the pre-primitive endpoint
   rows (see the header comment).  Falls back to marking everything dirty
   when either endpoint row is not resident. *)
let classify_insert t a b =
  if not t.dirty_every then begin
    match (t.tables.(a), t.tables.(b)) with
    | Some ra, Some rb ->
        Intvec.blit ~src:ra ~src_pos:0 ~dst:t.snap_a ~dst_pos:0 ~len:t.n;
        Intvec.blit ~src:rb ~src_pos:0 ~dst:t.snap_b ~dst_pos:0 ~len:t.n;
        for v = 0 to t.n - 1 do
          let da = Intvec.unsafe_get t.snap_a v
          and db = Intvec.unsafe_get t.snap_b v in
          let keep =
            (da < 0 && db < 0) || (da >= 0 && db >= 0 && abs (da - db) <= 1)
          in
          if not keep then mark_dirty t v
        done
    | _ -> mark_all_dirty t
  end

let classify_delete t a b =
  if not t.dirty_every then begin
    match (t.tables.(a), t.tables.(b)) with
    | Some ra, Some rb ->
        Intvec.blit ~src:ra ~src_pos:0 ~dst:t.snap_a ~dst_pos:0 ~len:t.n;
        Intvec.blit ~src:rb ~src_pos:0 ~dst:t.snap_b ~dst_pos:0 ~len:t.n;
        for v = 0 to t.n - 1 do
          if Intvec.unsafe_get t.snap_a v <> Intvec.unsafe_get t.snap_b v then
            mark_dirty t v
        done
    | _ -> mark_all_dirty t
  end

let note_added t g a b =
  if Graph.n g <> t.n then invalid_arg "Distcache.note_added: size mismatch";
  t.touch_ver.(a) <- t.touch_ver.(a) + 1;
  t.touch_ver.(b) <- t.touch_ver.(b) + 1;
  mark_dirty t a;
  mark_dirty t b;
  classify_insert t a b;
  let csr = Graph.csr g in
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    match t.tables.(v) with
    | None -> ()
    | Some d ->
        let da = Intvec.get d a and db = Intvec.get d b in
        if da < 0 && db < 0 then t.kept <- t.kept + 1
        else if da >= 0 && db >= 0 && abs (da - db) <= 1 then
          t.kept <- t.kept + 1
        else begin
          (* far side strictly improves through the new edge *)
          let near_d, far =
            if db < 0 then (da, b)
            else if da < 0 then (db, a)
            else if da <= db then (da, b)
            else (db, a)
          in
          repair_insert t csr v d far (near_d + 1)
        end
  done

let note_removed t g a b =
  if Graph.n g <> t.n then invalid_arg "Distcache.note_removed: size mismatch";
  t.touch_ver.(a) <- t.touch_ver.(a) + 1;
  t.touch_ver.(b) <- t.touch_ver.(b) + 1;
  mark_dirty t a;
  mark_dirty t b;
  classify_delete t a b;
  let csr = Graph.csr g in
  let off = Csr.offsets csr and tg = Csr.targets csr in
  for k = 0 to t.res_count - 1 do
    let v = t.res_list.(k) in
    match t.tables.(v) with
    | None -> ()
    | Some d ->
        let da = Intvec.get d a and db = Intvec.get d b in
        if da < 0 && db < 0 then t.kept <- t.kept + 1
        else if da = db then t.kept <- t.kept + 1
        else if da < 0 || db < 0 then
          (* impossible for a well-formed pre-delete state (the edge made
             the endpoints' levels differ by at most one); be safe under
             fault injection *)
          rebuild t csr v d
        else begin
          let far = if da < db then b else a in
          let fd = Intvec.get d far in
          (* fast-keep: another parent survives at the far level - 1 *)
          let has_parent = ref false in
          let i = ref (Intvec.get off far) in
          let row_end = Intvec.get off (far + 1) in
          while (not !has_parent) && !i < row_end do
            if Intvec.get d (Intvec.get tg !i) = fd - 1 then has_parent := true;
            incr i
          done;
          if !has_parent then t.kept <- t.kept + 1
          else repair_delete t csr v d far
        end
  done

(* Process-wide totals, aggregated across engine runs (and, in sweeps,
   across the domains of one process) for [ncg_sim --verbose]. *)

let g_kept = Atomic.make 0
let g_repaired = Atomic.make 0
let g_rebuilt = Atomic.make 0
let g_fills = Atomic.make 0
let g_evicted = Atomic.make 0
let g_peak_tables = Atomic.make 0
let g_peak_bytes = Atomic.make 0

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let add_residency_to_totals (r : residency) =
  atomic_max g_peak_tables r.peak;
  atomic_max g_peak_bytes r.peak_bytes

let residency_totals () = (Atomic.get g_peak_tables, Atomic.get g_peak_bytes)

let add_to_totals (s : stats) =
  ignore (Atomic.fetch_and_add g_kept s.kept);
  ignore (Atomic.fetch_and_add g_repaired s.repaired);
  ignore (Atomic.fetch_and_add g_rebuilt s.rebuilt);
  ignore (Atomic.fetch_and_add g_fills s.fills);
  ignore (Atomic.fetch_and_add g_evicted s.evicted)

let totals () =
  {
    kept = Atomic.get g_kept;
    repaired = Atomic.get g_repaired;
    rebuilt = Atomic.get g_rebuilt;
    fills = Atomic.get g_fills;
    evicted = Atomic.get g_evicted;
  }

let reset_totals () =
  Atomic.set g_kept 0;
  Atomic.set g_repaired 0;
  Atomic.set g_rebuilt 0;
  Atomic.set g_fills 0;
  Atomic.set g_evicted 0;
  Atomic.set g_peak_tables 0;
  Atomic.set g_peak_bytes 0
