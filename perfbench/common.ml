(* Shared plumbing: options, timing, order statistics, the metric sink
   and the result line. *)

module Json = Ncg_service.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (* per-run artifacts, inside the working tree *)
  serve_exe : string;  (* the daemon binary, for the service workload *)
}

let now = Ncg_experiments.Clock.monotonic

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let quantile xs q =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else
        let f = pos -. float_of_int i in
        (a.(i) *. (1.0 -. f)) +. (a.(i + 1) *. f)

let median xs = quantile xs 0.5

(* The timed load: [sample ()] repeatedly, at least [min] times, and
   then while one more sample of the last one's length still fits in
   [o.seconds]. *)
let samples ~min o sample =
  let t_end = now () +. o.seconds in
  let rec go k =
    let (), dt = time sample in
    if k + 1 < min || now () +. dt <= t_end then go (k + 1)
  in
  go 0

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A full collection, then a restart of the kernel's peak-RSS mark, so
   that [peak_rss_mib] covers what follows, not what came before. *)
let reset_peak_rss () =
  Gc.compact ();
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* Peak resident set of a process so far, MiB (VmHWM): this one by
   default, or a live child. *)
let peak_rss_mib ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Everything one run reports.  [fail] records a failed correctness
   check; a workload adds every attempted operation to [attempted] and
   every operation that did not finish correctly to [failed]. *)
type report = {
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable details : (string * float * string) list;  (* newest first *)
  mutable counters : (string * int) list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let report () =
  {
    metrics = [];
    details = [];
    counters = [];
    attempted = 0;
    failed = 0;
    problems = [];
  }

(* [metric] goes into the result line; BENCHMARK.json declares it for
   every workload.  [detail] is a workload's own finer metric, printed
   with its unit above the result line only. *)
let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics
let detail r name unit v = r.details <- (name, v, unit) :: r.details
let counter r name v = r.counters <- r.counters @ [ (name, v) ]

let fail r msg =
  r.problems <- msg :: r.problems;
  Printf.printf "CHECK FAILED: %s\n%!" msg

let check r ok msg = if not ok then fail r msg

let attempt r ~ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

let num v = if Float.is_finite v then Json.Float v else Json.Null

let emit o r =
  let metrics = List.rev r.metrics in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-32s %.6g %s\n" name v unit)
    metrics;
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%-32s %.6g %s (detail)\n" name v unit)
    (List.rev r.details);
  (* the deterministic counter block: a pure function of code and seed *)
  Printf.printf "COUNTERS %s\n"
    (Json.to_string
       (Json.Obj
          (("workload", Json.Str o.workload)
          :: ("seed", Json.Int o.seed)
          :: List.map (fun (k, v) -> (k, Json.Int v)) r.counters)));
  let correct = r.problems = [] && r.failed = 0 && r.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))
