(* In-memory span recorder for the traced runs.

   A span is (layer, parent, start, stop) on the monotonic clock.  Spans
   nest strictly (the recorder keeps an explicit stack), so a layer's
   self time is its duration minus the time its direct children cover;
   self times are accumulated as spans close.  The raw spans stay in
   growable arrays and are written out once, when the benchmark ends. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable layer_names : string array;
  mutable self : float array;  (* per layer *)
  mutable layer : int array;  (* per span *)
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable child : float array;  (* time covered by direct children *)
  mutable spans : int;
  mutable stack : int list;
}

let now = Ncg_experiments.Clock.monotonic

let create () =
  {
    names = Hashtbl.create 32;
    layer_names = [||];
    self = [||];
    layer = Array.make 1024 0;
    parent = Array.make 1024 (-1);
    start = Array.make 1024 0.0;
    stop = Array.make 1024 0.0;
    child = Array.make 1024 0.0;
    spans = 0;
    stack = [];
  }

let grow a fill = Array.append a (Array.make (Array.length a) fill)

let layer_id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.layer_names in
      Hashtbl.add t.names name i;
      t.layer_names <- Array.append t.layer_names [| name |];
      t.self <- Array.append t.self [| 0.0 |];
      i

let enter t name =
  let id = layer_id t name in
  if t.spans = Array.length t.layer then begin
    t.layer <- grow t.layer 0;
    t.parent <- grow t.parent (-1);
    t.start <- grow t.start 0.0;
    t.stop <- grow t.stop 0.0;
    t.child <- grow t.child 0.0
  end;
  let s = t.spans in
  t.spans <- s + 1;
  t.layer.(s) <- id;
  t.parent.(s) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.child.(s) <- 0.0;
  t.stack <- s :: t.stack;
  t.start.(s) <- now ()

let leave t =
  let stop = now () in
  match t.stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | s :: rest ->
      t.stack <- rest;
      t.stop.(s) <- stop;
      let dur = stop -. t.start.(s) in
      let id = t.layer.(s) in
      t.self.(id) <- t.self.(id) +. (dur -. t.child.(s));
      let p = t.parent.(s) in
      if p >= 0 then t.child.(p) <- t.child.(p) +. dur

(* [wrap tr name f]: [f ()] inside a span when tracing, a bare call
   otherwise — the untraced path costs one match. *)
let wrap tr name f =
  match tr with
  | None -> f ()
  | Some t -> (
      enter t name;
      match f () with
      | v ->
          leave t;
          v
      | exception e ->
          leave t;
          raise e)

let self_time t name =
  match Hashtbl.find_opt t.names name with Some i -> t.self.(i) | None -> 0.0

(* Summed self time of every layer whose name starts with [prefix]: a
   module's share when its layers are named "module.function". *)
let self_prefix t prefix =
  let total = ref 0.0 in
  Array.iteri
    (fun i name ->
      if String.starts_with ~prefix name then total := !total +. t.self.(i))
    t.layer_names;
  !total

(* One line per span: id, parent, layer, start and stop in ns relative
   to the first span. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.spans > 0 then t.start.(0) else 0.0 in
  let ns x = Int64.of_float ((x -. t0) *. 1e9) in
  output_string oc "id\tparent\tlayer\tstart_ns\tstop_ns\n";
  for s = 0 to t.spans - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%Ld\t%Ld\n" s t.parent.(s)
      t.layer_names.(t.layer.(s)) (ns t.start.(s)) (ns t.stop.(s))
  done;
  close_out oc
