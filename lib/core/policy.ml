type t =
  | Max_cost
  | Random_unhappy
  | Round_robin
  | Adversarial of (Graph.t -> int list -> int option)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* First unhappy agent in the given probe order. *)
let first_unhappy probe order =
  let n = Array.length order in
  let rec go i =
    if i >= n then None else if probe order.(i) then Some order.(i) else go (i + 1)
  in
  go 0

(* Selection skeleton shared by the naive and the fast path, so both draw
   from the RNG in lockstep — a requirement for the differential oracle.
   [cost_of] and [probe] are the only things that differ, and both compute
   identical values on either path. *)
let select_core t ~rng ~probe ~cost_of model g ~last =
  let n = Graph.n g in
  match t with
  | Max_cost ->
      (* Descending cost order, cost ties broken uniformly at random: the
         shuffle assigns every agent a random rank and the in-place sort
         uses it as the tie-break — the same order the old shuffle +
         stable-sort list round-trip produced, without the lists. *)
      let order = Array.init n (fun i -> i) in
      shuffle rng order;
      let costs = Array.init n cost_of in
      let rank = Array.make (max 1 n) 0 in
      Array.iteri (fun i v -> rank.(v) <- i) order;
      let unit_price = Model.unit_price model in
      Array.sort
        (fun a b ->
          let c = Cost.compare ~unit_price costs.(b) costs.(a) in
          if c <> 0 then c else Stdlib.compare rank.(a) rank.(b))
        order;
      first_unhappy probe order
  | Random_unhappy ->
      let order = Array.init n (fun i -> i) in
      shuffle rng order;
      first_unhappy probe order
  | Round_robin ->
      let start = match last with None -> 0 | Some u -> (u + 1) mod n in
      let order = Array.init n (fun i -> (start + i) mod n) in
      first_unhappy probe order
  | Adversarial f ->
      let unhappy = List.filter probe (Graph.vertices g) in
      if unhappy = [] then None else f g unhappy

let select t ~rng ~ws model g ~last =
  select_core t ~rng
    ~probe:(fun u -> Response.is_unhappy ~ws model g u)
    ~cost_of:(fun u -> Agents.cost_ws ws model g u)
    model g ~last

let select_fast t ~rng ~ctx ~witness model g ~last =
  select_core t ~rng
    ~probe:(fun u -> Witness.probe witness ctx u)
    ~cost_of:(fun u -> Response.Fast.cost ctx u)
    model g ~last

(* Output-sensitive selection: [Max_cost] walks the bucketed cost board
   (maintained from the distance cache's dirty sets by the engine) instead
   of recomputing and sorting all n costs.  The RNG stream is untouched —
   the same shuffle draws produce the same random ranks, and the board's
   (key desc, rank asc) walk is the same total order the full sort yields,
   so selection is bit-identical to [select_fast].  Policies that don't
   sort by cost never scanned costs in the first place and fall through to
   the shared skeleton unchanged. *)
let select_sublinear t ~rng ~ctx ~witness ~board model g ~last =
  match t with
  | Max_cost ->
      let n = Graph.n g in
      let order = Array.init n (fun i -> i) in
      shuffle rng order;
      let rank = Array.make (max 1 n) 0 in
      Array.iteri (fun i v -> rank.(v) <- i) order;
      Costboard.select_desc board ~rank
        ~probe:(fun u -> Witness.probe witness ctx u)
  | Random_unhappy | Round_robin | Adversarial _ ->
      select_core t ~rng
        ~probe:(fun u -> Witness.probe witness ctx u)
        ~cost_of:(fun u -> Response.Fast.cost ctx u)
        model g ~last
