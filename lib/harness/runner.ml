module W = Fpx_workloads.Workload
module Isa = Fpx_sass.Isa
module Exce = Fpx_tool.Exce
module Json = Fpx_obs.Json
module Fault = Fpx_fault.Fault

type tool_config =
  | No_tool
  | Detector of Gpu_fpx.Detector.config
  | Binfpe
  | Analyzer
  | Stack of tool_config list

let rec tool_config_to_string = function
  | No_tool -> "native"
  | Detector c ->
    let base = if c.Gpu_fpx.Detector.use_gt then "GPU-FPX" else "GPU-FPX w/o GT" in
    let k = c.Gpu_fpx.Detector.sampling.Gpu_fpx.Sampling.freq_redn_factor in
    if k > 0 then Printf.sprintf "%s (k=%d)" base k else base
  | Binfpe -> "BinFPE"
  | Analyzer -> "GPU-FPX analyzer"
  | Stack cfgs ->
    Printf.sprintf "stack(%s)"
      (String.concat "+" (List.map tool_config_to_string cfgs))

type status =
  | Completed
  | Degraded of string list
  | Hung
  | Faulted of string

let status_to_string = function
  | Completed -> "completed"
  | Degraded _ -> "degraded"
  | Hung -> "hung"
  | Faulted _ -> "faulted"

let status_detail = function
  | Completed -> ""
  | Degraded reasons -> String.concat "; " reasons
  | Hung -> ""
  | Faulted msg -> msg

type measurement = {
  program : string;
  tool : tool_config;
  slowdown : float;
  hang : bool;
  status : status;
  records : int;
  dyn_instrs : int;
  counts : (Isa.fp_format * Exce.t * int) list;
  total_exceptions : int;
  log : string list;
  analyzer_reports : Gpu_fpx.Analyzer.report list;
  escapes : Gpu_fpx.Analyzer.escape list;
  extras : Fpx_tool.extra list;
  obs : Fpx_obs.Sink.t;
}

let count m ~fmt ~exce =
  match
    List.find_opt (fun (f, e, _) -> f = fmt && Exce.equal e exce) m.counts
  with
  | Some (_, _, n) -> n
  | None -> 0

(* Build the tool instance a config describes on a device. Every
   configuration — including composed stacks — flows through the same
   [Fpx_tool.instance] path from here on. *)
let rec instance_of_config dev = function
  | No_tool -> None
  | Detector config ->
    Some (Gpu_fpx.Detector.tool (Gpu_fpx.Detector.create ~config dev))
  | Binfpe -> Some (Fpx_binfpe.Binfpe.tool (Fpx_binfpe.Binfpe.create dev))
  | Analyzer -> Some (Gpu_fpx.Analyzer.tool (Gpu_fpx.Analyzer.create dev))
  | Stack cfgs ->
    Some (Fpx_tool.stack (List.filter_map (instance_of_config dev) cfgs))

let run_body ?cost ?(obs = Fpx_obs.Sink.null) ?fault ?bw ?on_launch ~mode
    ~tool (w : W.t) body =
  (* A fresh plan per run: the spec is immutable, so two runs with the
     same spec see identical fault decision sequences. *)
  let plan, dev, rt, inst =
    Fpx_obs.Span.with_ ~cat:"run" "run.setup" (fun () ->
        let plan =
          match fault with None -> Fault.none | Some spec -> Fault.of_spec spec
        in
        let dev = Fpx_gpu.Device.create ?cost ~obs ~fault:plan ?bw () in
        let rt = Fpx_nvbit.Runtime.create dev in
        Fpx_nvbit.Runtime.set_on_launch rt on_launch;
        let inst = instance_of_config dev tool in
        Option.iter (Fpx_nvbit.Runtime.attach rt) inst;
        (plan, dev, rt, inst))
  in
  (* An aborted launch still yields a partial report: whatever the tool
     drained before the abort survives in its host-side tables. *)
  let abort =
    Fpx_obs.Span.with_ ~cat:"run"
      ~args:
        (if Fpx_obs.Span.enabled () then [ ("program", Fpx_obs.Trace.S w.W.name) ]
         else [])
      "run.body"
      (fun () ->
        try
          body { W.rt; mode };
          None
        with
        | Fpx_nvbit.Runtime.Hang_abort msg -> Some (`Hang msg)
        | Fpx_gpu.Exec.Trap msg -> Some (`Trap msg))
  in
  Fpx_obs.Span.with_ ~cat:"run" "run.report" @@ fun () ->
  let stats = Fpx_nvbit.Runtime.totals rt in
  let slowdown = Fpx_gpu.Stats.slowdown stats in
  let hang =
    (slowdown > dev.Fpx_gpu.Device.cost.Fpx_gpu.Cost.hang_slowdown
    || match abort with Some (`Hang _) -> true | _ -> false)
  in
  let rep =
    match inst with
    | None -> Fpx_tool.empty_report
    | Some i -> Fpx_tool.report i
  in
  let counts = rep.Fpx_tool.counts and log = rep.Fpx_tool.log in
  let reports, escapes =
    List.fold_left
      (fun (rs, es) extra ->
        match extra with
        | Gpu_fpx.Analyzer.Analyzer a ->
          (rs @ Gpu_fpx.Analyzer.reports a, es @ Gpu_fpx.Analyzer.escapes a)
        | _ -> (rs, es))
      ([], []) rep.Fpx_tool.extras
  in
  let degradations =
    (match Fault.active plan with Some a -> Fault.reasons a | None -> [])
    @ rep.Fpx_tool.degradations
  in
  let status =
    match abort with
    | Some (`Hang _) -> Hung
    | Some (`Trap msg) -> Faulted msg
    | None ->
      if hang then Hung
      else if degradations <> [] then Degraded degradations
      else Completed
  in
  (* Export fault-injection counters into the run's metrics registry so
     a --metrics-out dump shows what the plan actually did. *)
  (match Fpx_obs.Sink.active obs, Fault.active plan with
  | Some a, Some fa ->
    let m = a.Fpx_obs.Sink.metrics in
    List.iter
      (fun (site, n) ->
        if n > 0 then
          Fpx_obs.Metrics.add_named m
            ~help:"Faults injected by site"
            (Printf.sprintf "fpx_fault_injected_total{site=%S}"
               (Fault.site_to_string site))
            n)
      (Fault.injected_counts fa);
    Fpx_obs.Metrics.add_named m ~help:"Total faults injected"
      "fpx_fault_injected_total" (Fault.total_injected fa);
    Fpx_obs.Metrics.add_named m
      ~help:"Cycles attributable to injected faults"
      "fpx_fault_cycles_total" stats.Fpx_gpu.Stats.fault_cycles
  | _ -> ());
  (* Surface the trace ring's drop count: an exported trace that wrapped
     looks complete unless a counter says otherwise. *)
  (match Fpx_obs.Sink.active obs with
  | Some a ->
    let d = Fpx_obs.Trace.dropped a.Fpx_obs.Sink.trace in
    if d > 0 then
      Fpx_obs.Metrics.add_named a.Fpx_obs.Sink.metrics
        ~help:"Trace events overwritten by ring wrap-around"
        "fpx_trace_events_dropped_total" d
  | None -> ());
  {
    program = w.W.name;
    tool;
    slowdown;
    hang;
    status;
    records = stats.Fpx_gpu.Stats.records_pushed;
    dyn_instrs = stats.Fpx_gpu.Stats.dyn_instrs;
    counts;
    total_exceptions = List.fold_left (fun a (_, _, n) -> a + n) 0 counts;
    log;
    analyzer_reports = reports;
    escapes;
    extras = rep.Fpx_tool.extras;
    obs;
  }

let run ?cost ?obs ?fault ?bw ?on_launch ?(mode = Fpx_klang.Mode.precise)
    ~tool (w : W.t) =
  run_body ?cost ?obs ?fault ?bw ?on_launch ~mode ~tool w w.W.run

let run_repair ?obs ?fault ?(mode = Fpx_klang.Mode.precise) ~tool (w : W.t) =
  Option.map (fun body -> run_body ?obs ?fault ~mode ~tool w body) w.W.repair

let geomean = function
  | [] -> 1.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log (max x 1e-9)) 0.0 xs
         /. float_of_int (List.length xs))

(* --- JSON rendering (hand-rolled; the report shape is small) --------- *)

let to_json m =
  let counts =
    String.concat ","
      (List.map
         (fun (fmt, e, n) ->
           Printf.sprintf "{\"format\":\"%s\",\"kind\":\"%s\",\"locations\":%d}"
             (Isa.fp_format_to_string fmt) (Exce.to_string e) n)
         m.counts)
  in
  let escapes =
    String.concat ","
      (List.map
         (fun (e : Gpu_fpx.Analyzer.escape) ->
           Printf.sprintf
             "{\"kernel\":\"%s\",\"loc\":\"%s\",\"kind\":\"%s\"}"
             (Json.escape e.Gpu_fpx.Analyzer.store_kernel)
             (Json.escape e.Gpu_fpx.Analyzer.store_loc)
             (Fpx_num.Kind.to_string e.Gpu_fpx.Analyzer.kind))
         m.escapes)
  in
  let log =
    String.concat ","
      (List.map Json.quote m.log)
  in
  Printf.sprintf
    "{\"program\":\"%s\",\"tool\":\"%s\",\"slowdown\":%.4f,\"hang\":%b,\"status\":\"%s\",\"status_detail\":\"%s\",\"records\":%d,\"dyn_instrs\":%d,\"total_exceptions\":%d,\"counts\":[%s],\"escapes\":[%s],\"log\":[%s]}"
    (Json.escape m.program)
    (Json.escape (tool_config_to_string m.tool))
    m.slowdown m.hang
    (status_to_string m.status)
    (Json.escape (status_detail m.status))
    m.records m.dyn_instrs m.total_exceptions counts escapes log
