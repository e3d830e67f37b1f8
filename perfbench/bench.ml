(* The benchmark entry point. One run:

     bench.exe --workload W --seed N --seconds S --trace 0|1

   prints a context line and then, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end_to_end list of BENCHMARK.json: set-up (median of
   three set-ups, two of them in child processes), an untimed warm-up
   pass, then timed passes until S seconds have elapsed, every timing
   taken per pass and reported as the median across passes. With
   --trace 1 they are its per_layer list, from Ledger. *)

module Oracle = Perfbench.Oracle
module Stat = Perfbench.Stat
module Host = Perfbench.Host

let oracle_path = "perfbench/oracle.txt"
let now = Unix.gettimeofday
let min_passes = 3
let setup_probes = 2

let fmt_float v = Printf.sprintf "%.17g" v

(* Every metric [section] of BENCHMARK.json lists, in its order and
   with its unit; a metric computed but not listed, or listed but not
   computed, is an error. *)
let result_line ~tally metrics section =
  let listed = Perfbench.Spec.metrics section in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name listed) then
        failwith (Printf.sprintf "metric %s is not in BENCHMARK.json %s" name section))
    metrics;
  let metric (name, unit) =
    match List.assoc_opt name metrics with
    | Some v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_float v) unit
    | None -> failwith (Printf.sprintf "metric %s of BENCHMARK.json %s not computed" name section)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.Oracle.failed = 0 && tally.Oracle.attempted > 0)
    tally.Oracle.attempted tally.Oracle.failed
    (String.concat ", " (List.map metric listed))

let context_line ~workload ~seed ~trace ~steal0 extra =
  let kv (k, v) = Printf.sprintf "%S: %s" k v in
  Printf.sprintf "{\"context\": {%s}}"
    (String.concat ", "
       (List.map kv
          ([ ("workload", Printf.sprintf "%S" workload);
             ("seed", string_of_int seed);
             ("trace", string_of_int trace) ]
          @ Host.context ~steal0 @ extra)))

(* Set-up is start-up plus the warm-up pass. *)
let set_up workload ~oracle ~tally ~seed =
  let t0 = now () in
  let w = Work.start workload ~oracle ~tally ~seed in
  ignore (w.Work.run_pass ());
  (w, now () -. t0)

(* A set-up in a child process: cold like the parent's, so work moved
   into process-wide lazy state still shows. *)
let probe_setup workload ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--setup-probe"; "--workload"; workload;
         "--seed"; string_of_int seed |]
  in
  let line = try In_channel.input_line ic with End_of_file -> None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l ->
    Scanf.sscanf l "setup %f %d %d" (fun s a f -> (s, a, f))
  | _ -> failwith "set-up probe failed"

let end_to_end ~oracle ~workload ~seed ~seconds =
  let steal0 = Host.steal_ticks () in
  let tally = Oracle.tally () in
  let probes =
    List.init setup_probes (fun _ ->
        let s, a, f = probe_setup workload ~seed in
        tally.attempted <- tally.attempted + a;
        tally.failed <- tally.failed + f;
        s)
  in
  let w, own = set_up workload ~oracle ~tally ~seed in
  let setups = own :: probes in
  (* At least one full cycle of timed passes. Peak RSS is read after
     set-up and those first [fixed] passes, the same work on any host
     and for any seed: memory kept from pass to pass shows, and a host
     that fits more passes into the run does not read higher. *)
  let fixed = max min_passes w.Work.cycle in
  let hwm_kb = ref 0 in
  let t1 = now () in
  let rec loop acc n =
    if n = fixed then hwm_kb := Host.status_kb "VmHWM";
    if n >= fixed && now () -. t1 >= seconds then List.rev acc
    else loop (w.Work.run_pass () :: acc) (n + 1)
  in
  let passes = Array.of_list (loop [] 0) in
  w.Work.stop ();
  let per f = Stat.median (Array.map f passes) in
  let ops (p : Work.pass) = float_of_int (Array.length p.lat) in
  let tail_p = fst (Stat.tail passes.(0).Work.lat) in
  let per_pass f = "[" ^ String.concat ", " (Array.to_list (Array.map f passes)) ^ "]" in
  let metrics =
    [ ("setup_s", Stat.median (Array.of_list setups));
      ("ops_per_s", per (fun p -> ops p /. p.wall));
      ("op_p50_ms", per (fun p -> 1e3 *. Stat.median p.lat));
      ("op_tail_ms", per (fun p -> 1e3 *. snd (Stat.tail p.lat)));
      ("alloc_mb_per_op",
       per (fun p -> p.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6 /. ops p));
      ("peak_rss_mb", float_of_int !hwm_kb /. 1024.);
      ("ok_frac", 1. -. Oracle.fail_frac tally) ]
  in
  print_endline
    (context_line ~workload ~seed ~trace:0 ~steal0
       [ ("passes", string_of_int (Array.length passes));
         ("ops_per_pass", string_of_int (Array.length passes.(0).lat));
         ("tail_percentile", string_of_int tail_p);
         ("pass_walls_s", per_pass (fun p -> fmt_float p.Work.wall));
         ("pass_rss_kb", per_pass (fun p -> string_of_int p.Work.rss_kb));
         ("pass_steal_ticks", per_pass (fun p -> string_of_int p.Work.steal)) ]);
  print_endline (result_line ~tally metrics "end_to_end")

let traced ~oracle ~workload ~seed =
  let steal0 = Host.steal_ticks () in
  let tally = Oracle.tally () in
  let metrics = Ledger.run ~oracle ~tally ~workload ~seed in
  print_endline (context_line ~workload ~seed ~trace:1 ~steal0 []);
  print_endline (result_line ~tally metrics "per_layer")

(* Print oracle.txt for the code as it stands: run once when the
   benchmark is defined, never to make a failing run pass. *)
let pin () =
  let module R = Fpx_harness.Runner in
  Array.iter
    (fun (w : Fpx_workloads.Workload.t) ->
      print_endline
        (Oracle.line ~kind:"catalog" ~key:(Work.catalog_key w)
           (R.to_json (R.run ~tool:Work.detector w))))
    (Array.of_list Fpx_workloads.Catalog.evaluated);
  let srv = Fpx_serve.Server.create () in
  Array.iter
    (fun ((tool, program) as k) ->
      print_endline
        (Oracle.line ~kind:"serve" ~key:(tool ^ "/" ^ program)
           (Fpx_serve.Server.handle srv (Work.submit_request k))))
    Work.serve_keys;
  Fpx_serve.Server.shutdown srv;
  let jobs = Fpx_sched.Sched.recommended_jobs () in
  let store = Work.scratch_dir "pin" in
  Array.iter
    (fun plan ->
      let cfg = Work.campaign_config ~jobs ~store ~plan ~total:Work.campaign_total in
      print_endline
        (Oracle.line ~kind:"campaign"
           ~key:(Printf.sprintf "%d/%d" plan Work.campaign_total)
           (Fpx_campaign.Campaign.summary_json (Fpx_campaign.Campaign.run cfg))))
    Work.plan_seeds;
  Work.remove_tree store

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       bench.exe --pin   (print oracle.txt for the current code)";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let probe = ref false and pin_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--setup-probe", Arg.Set probe, " internal: one set-up, timed");
      ("--pin", Arg.Set pin_mode, " print the oracle for the current code") ]
    (fun _ -> usage ())
    "bench.exe";
  if !pin_mode then pin ()
  else begin
    if not (List.mem !workload (Perfbench.Spec.workloads ())) then usage ();
    let oracle = Oracle.load oracle_path in
    if !probe then begin
      let tally = Oracle.tally () in
      let w, s = set_up !workload ~oracle ~tally ~seed:!seed in
      w.Work.stop ();
      Printf.printf "setup %s %d %d\n" (fmt_float s) tally.attempted tally.failed
    end
    else if !trace = 0 then
      end_to_end ~oracle ~workload:!workload ~seed:!seed ~seconds:!seconds
    else traced ~oracle ~workload:!workload ~seed:!seed
  end
