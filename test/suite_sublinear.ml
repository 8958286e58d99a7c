(* Sublinear selection suite: the bucketed cost board, the dirty-set
   refresh discipline, the admission prefilters and the memory-bounded
   cache must all be invisible — same selected agents, same RNG stream,
   same move lists, same trajectories as the full-scan machinery, at a
   fraction of the work.  Unit tests pin the board's (key desc, rank asc)
   visit order and the eviction bookkeeping; QCheck properties drive
   random states and random move sequences through both paths and demand
   bit-identical answers. *)
open Ncg_graph
open Ncg_game
open Ncg_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cost board: bucketed (key desc, rank asc) order                     *)
(* ------------------------------------------------------------------ *)

(* The order [select_desc] must reproduce: the full sort the naive
   max-cost policy probes. *)
let naive_order keys rank =
  let idx = Array.init (Array.length keys) (fun i -> i) in
  Array.sort
    (fun a b ->
      if keys.(a) <> keys.(b) then compare keys.(b) keys.(a)
      else compare rank.(a) rank.(b))
    idx;
  Array.to_list idx

let test_board_order () =
  let keys = [| 5; 3; 5; 1; 0; 3; 5 |] in
  let n = Array.length keys in
  let rank = [| 4; 0; 2; 6; 1; 5; 3 |] in
  let board = Costboard.create n in
  Array.iteri (fun v k -> Costboard.update board v k) keys;
  check "complete once all keys installed" true (Costboard.complete board);
  (* accept nobody: the board must visit every agent in full-sort order *)
  let log = ref [] in
  let picked =
    Costboard.select_desc board ~rank ~probe:(fun v ->
        log := v :: !log;
        false)
  in
  check "no acceptance, no selection" true (picked = None);
  check "probe order is the full sort" true
    (List.rev !log = naive_order keys rank);
  (* accept agent 5 only: the probe sequence stops exactly there *)
  let log = ref [] in
  let picked =
    Costboard.select_desc board ~rank ~probe:(fun v ->
        log := v :: !log;
        v = 5)
  in
  check "first accepted agent selected" true (picked = Some 5);
  let expected_prefix =
    let rec take_until acc = function
      | [] -> List.rev acc
      | v :: rest ->
          if v = 5 then List.rev (v :: acc) else take_until (v :: acc) rest
    in
    take_until [] (naive_order keys rank)
  in
  check "probe sequence is the sort prefix" true
    (List.rev !log = expected_prefix)

let test_board_update_and_reset () =
  let board = Costboard.create 3 in
  Costboard.update board 0 10;
  check "incomplete board refuses to select" true
    (match Costboard.select_desc board ~rank:[| 0; 1; 2 |] ~probe:(fun _ -> true) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Costboard.update board 1 20;
  Costboard.update board 2 5;
  let first =
    Costboard.select_desc board ~rank:[| 0; 1; 2 |] ~probe:(fun _ -> true)
  in
  check "highest key wins" true (first = Some 1);
  (* O(1) re-bucketing: promote agent 2 past everyone *)
  Costboard.update board 2 99;
  let first =
    Costboard.select_desc board ~rank:[| 0; 1; 2 |] ~probe:(fun _ -> true)
  in
  check "updated key re-buckets" true (first = Some 2);
  check "key readback" true (Costboard.key board 2 = Some 99);
  Costboard.reset board;
  check "reset forgets every key" true (not (Costboard.complete board))

let prop_board_matches_full_sort =
  QCheck.Test.make ~count:200
    ~name:"cost board visits agents exactly in (key desc, rank asc) order"
    QCheck.(triple (int_range 1 24) (int_range 0 10) small_int)
    (fun (n, key_span, seed) ->
      let rng = Random.State.make [| seed; 0xb0a2d |] in
      let keys =
        Array.init n (fun _ -> Random.State.int rng (key_span + 1))
      in
      let rank = Array.init n (fun i -> i) in
      (* Fisher-Yates: a random rank permutation *)
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = rank.(i) in
        rank.(i) <- rank.(j);
        rank.(j) <- t
      done;
      let accept = Array.init n (fun _ -> Random.State.bool rng) in
      let board = Costboard.create n in
      Array.iteri (fun v k -> Costboard.update board v k) keys;
      let log = ref [] in
      let picked =
        Costboard.select_desc board ~rank ~probe:(fun v ->
            log := v :: !log;
            accept.(v))
      in
      let order = naive_order keys rank in
      let expected = List.find_opt (fun v -> accept.(v)) order in
      let expected_log =
        match expected with
        | None -> order
        | Some w ->
            let rec take acc = function
              | [] -> List.rev acc
              | v :: rest ->
                  if v = w then List.rev (v :: acc) else take (v :: acc) rest
            in
            take [] order
      in
      picked = expected && List.rev !log = expected_log)

(* ------------------------------------------------------------------ *)
(* Selection equality: board path vs full scan, RNG in lockstep        *)
(* ------------------------------------------------------------------ *)

let make_model ~sum n =
  let alpha = Ncg_rational.Q.make (max 1 n) 4 in
  Model.make ~alpha Model.Gbg (if sum then Model.Sum else Model.Max) n

(* Refresh the board exactly as the engine's first step does. *)
let refresh_board board ctx n =
  for v = 0 to n - 1 do
    Costboard.update board v (Response.Fast.cost_key ctx v)
  done

let prop_select_equals_select_fast =
  QCheck.Test.make ~count:60
    ~name:
      "board-backed max-cost selection = full-scan select_fast (agent and \
       RNG stream)"
    QCheck.(triple (int_range 5 16) small_int bool)
    (fun (n, seed, sum) ->
      let grng = Random.State.make [| seed; n; 0x5e1 |] in
      let m = (n - 1) + Random.State.int grng n in
      let g = Gen.random_m_edges grng n (min m (n * (n - 1) / 2)) in
      let model = make_model ~sum n in
      let ws = Paths.Workspace.create n in
      let ctx_fast = Response.Fast.create ws model g in
      let ctx_board = Response.Fast.create ws model g in
      let w_fast = Witness.create n and w_board = Witness.create n in
      let board = Costboard.create n in
      refresh_board board ctx_board n;
      let rng_fast = Random.State.make [| seed; 0xfa57 |] in
      let rng_board = Random.State.make [| seed; 0xfa57 |] in
      let a =
        Policy.select_fast Policy.Max_cost ~rng:rng_fast ~ctx:ctx_fast
          ~witness:w_fast model g ~last:None
      in
      let b =
        Policy.select_sublinear Policy.Max_cost ~rng:rng_board ~ctx:ctx_board
          ~witness:w_board ~board model g ~last:None
      in
      a = b
      (* the two RNGs must have consumed identical draw counts: their
         next draws coincide *)
      && Random.State.bits rng_fast = Random.State.bits rng_board
      && Random.State.bits rng_fast = Random.State.bits rng_board)

(* Whole trajectories under random move sequences: the engine (cost board
   under [Max_cost]) against the full-scan oracle [Reference.run], across
   both dist modes and both stochastic policies.  [Random_unhappy] takes
   the shared probe skeleton — included to pin that the fall-through
   draws stay in lockstep too. *)
let prop_trajectories_identical =
  QCheck.Test.make ~count:40
    ~name:"sublinear engine trajectories = full-scan trajectories"
    QCheck.(quad (int_range 6 14) small_int bool bool)
    (fun (n, seed, sum, random_policy) ->
      let grng = Random.State.make [| seed; n; 0x7ab |] in
      let g = Gen.random_m_edges grng n (2 * n) in
      let model = make_model ~sum n in
      let policy =
        if random_policy then Policy.Random_unhappy else Policy.Max_cost
      in
      let cfg =
        Engine.config ~policy ~tie_break:Engine.Uniform ~max_steps:25
          ~record_history:true model
      in
      let rng () = Random.State.make [| seed; 0xfa57 |] in
      let a = Reference.run ~rng:(rng ()) cfg g in
      let b = Engine.run ~rng:(rng ()) cfg g in
      a.Engine.steps = b.Engine.steps
      && a.Engine.reason = b.Engine.reason
      && Graph.equal a.Engine.final b.Engine.final
      && List.map (fun s -> s.Engine.move) a.Engine.history
         = List.map (fun s -> s.Engine.move) b.Engine.history)

(* ------------------------------------------------------------------ *)
(* Admission prefilters: caps and buy-profile bounds reject nothing    *)
(* that the naive scan admits                                          *)
(* ------------------------------------------------------------------ *)

let prop_prefilter_invisible =
  QCheck.Test.make ~count:60
    ~name:"admission prefilters change no move list (on = off = naive)"
    QCheck.(triple (int_range 5 12) small_int bool)
    (fun (n, seed, sum) ->
      let grng = Random.State.make [| seed; n; 0x9f |] in
      let g = Gen.random_m_edges grng n (2 * n) in
      let model = make_model ~sum n in
      let ws = Paths.Workspace.create n in
      let ctx_on = Response.Fast.create ws model g in
      let ctx_off = Response.Fast.create ws model g in
      Response.Fast.set_prefilter ctx_off false;
      let ok = ref true in
      for u = 0 to n - 1 do
        if
          Response.Fast.best_moves ctx_on u
          <> Response.Fast.best_moves ctx_off u
        then ok := false;
        if
          Response.Fast.improving_moves ctx_on u
          <> Response.Fast.improving_moves ctx_off u
        then ok := false;
        (* and both agree with the naive oracle *)
        if Response.Fast.best_moves ctx_on u <> Response.best_moves model g u
        then ok := false;
        if
          Response.Fast.improving_moves ctx_on u
          <> Response.improving_moves model g u
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Memory-bounded cache: eviction under pressure                       *)
(* ------------------------------------------------------------------ *)

let test_eviction_refill_exact () =
  (* A 3-table budget over a 12-vertex graph: filling all 12 tables must
     evict, and every evicted table must refill byte-identical to a fresh
     BFS. *)
  let n = 12 in
  let g = Gen.random_m_edges (Random.State.make [| 41 |]) n (2 * n) in
  let ws = Paths.Workspace.create n in
  let cache = Distcache.create ~budget:3 n in
  for v = 0 to n - 1 do
    ignore (Distcache.ensure cache ~ws g v)
  done;
  let stats = Distcache.stats cache in
  check_int "every table was filled once" n stats.Distcache.fills;
  check "pressure forced evictions" true (stats.Distcache.evicted >= n - 3);
  let r = Distcache.residency cache in
  check "resident tables within budget" true (r.Distcache.resident <= 3);
  check "peak tracked at or above resident" true
    (r.Distcache.peak >= r.Distcache.resident);
  let ok = ref true in
  for v = 0 to n - 1 do
    let d = Distcache.ensure cache ~ws g v in
    if Intvec.to_array d <> Paths.distances g v then ok := false
  done;
  check "evicted tables refill to fresh BFS" true !ok

let prop_budget_engine_identical =
  QCheck.Test.make ~count:30
    ~name:"cache budget changes no trajectory, keeps residency bounded"
    QCheck.(pair (int_range 8 20) small_int)
    (fun (n, seed) ->
      let grng = Random.State.make [| seed; n; 0xeb |] in
      let g = Gen.random_m_edges grng n (2 * n) in
      let model = make_model ~sum:true n in
      let run cache_budget =
        let cfg =
          Engine.config ~policy:Policy.Max_cost
            ~tie_break:Engine.Prefer_deletion ~max_steps:30
            ~record_history:true ?cache_budget model
        in
        Engine.run ~rng:(Random.State.make [| seed; 0xfa57 |]) cfg g
      in
      let free = run None and tight = run (Some 4) in
      let pin_slack = 8 in
      free.Engine.steps = tight.Engine.steps
      && free.Engine.reason = tight.Engine.reason
      && Graph.equal free.Engine.final tight.Engine.final
      && List.map (fun s -> s.Engine.move) free.Engine.history
         = List.map (fun s -> s.Engine.move) tight.Engine.history
      && tight.Engine.residency.Distcache.peak <= 4 + pin_slack)

let test_result_surfaces_residency () =
  (* The engine result must carry the cache's memory accounting: a
     budgeted run reports evictions and a peak near its budget, an
     unbudgeted run reports zero evictions. *)
  let n = 24 in
  let g = Gen.random_m_edges (Random.State.make [| 17 |]) n (2 * n) in
  let model = make_model ~sum:true n in
  let run cache_budget =
    let cfg =
      Engine.config ~policy:Policy.Max_cost ~tie_break:Engine.Prefer_deletion
        ~max_steps:40 ~record_history:false ?cache_budget model
    in
    Engine.run ~rng:(Random.State.make [| 3; 0xfa57 |]) cfg g
  in
  let tight = run (Some 6) in
  check "budgeted run evicted tables" true
    (tight.Engine.cache.Distcache.evicted > 0);
  check "budgeted peak bounded" true
    (tight.Engine.residency.Distcache.peak <= 6 + 8);
  check "peak bytes accounted" true
    (tight.Engine.residency.Distcache.peak_bytes > 0);
  let free = run None in
  check "unbudgeted run never evicts" true
    (free.Engine.cache.Distcache.evicted = 0)

let suite =
  ( "sublinear",
    [
      Alcotest.test_case "board visit order" `Quick test_board_order;
      Alcotest.test_case "board update and reset" `Quick
        test_board_update_and_reset;
      Alcotest.test_case "eviction refills exactly" `Quick
        test_eviction_refill_exact;
      Alcotest.test_case "result surfaces residency" `Quick
        test_result_surfaces_residency;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_board_matches_full_sort;
          prop_select_equals_select_fast;
          prop_trajectories_identical;
          prop_prefilter_invisible;
          prop_budget_engine_identical;
        ] )
