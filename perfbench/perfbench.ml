open Common

let () =
  if Array.length Sys.argv = 6 && Sys.argv.(1) = "--carto-worker" then
    Carto.worker_main Sys.argv;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out_dir = ref "." and serve_exe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out-dir", Arg.Set_string out_dir, "DIR run artifacts");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH ncg_serve binary");
    ]
    (fun _ -> ())
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out_dir = !out_dir;
      serve_exe = !serve_exe;
    }
  in
  let r = report () in
  (match o.workload with
  | "sweep-n100" -> Sweep.run o r
  | "bigtrial-n2000" -> Bigtrial.run o r
  | "service" -> Service.run o r
  | "carto-path8" -> Carto.run o r
  | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2);
  emit o r
