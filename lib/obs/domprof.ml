(* Self-profiling attribution: fold a span recording of a sweep into a
   per-phase overhead breakdown, and explain a jobs=1 -> jobs=N
   wall-clock delta by naming the dominant overhead source. The same
   discipline the tool applies to kernels (measure, attribute,
   minimize) applied to the tool itself. *)

(* --- Phase classification --------------------------------------------- *)

(* A span's phase is decided by its (cat, name); phase totals are SELF
   times (a span's duration minus its direct children's durations), so
   an instant of wall time on a track is attributed to exactly one
   phase and per-phase totals on a track sum to at most the track's
   elapsed time. *)
let phase_of (sp : Span.span) =
  match (sp.Span.cat, sp.Span.name) with
  | "jit", _ -> "jit"
  | "exec", _ -> "exec"
  | "drain", _ -> "drain"
  | "run", "run.setup" -> "setup"
  | "run", "run.report" -> "report"
  | "run", _ -> "body_other"
  | "sched", "sched.task" -> "task_other"
  | "sched", "sched.claim" -> "steal"
  | "sched", "sched.spawn" -> "spawn"
  | "sched", "sched.join" -> "join"
  | "sched", "sched.worker" -> "queue_wait"
  | "sched", _ -> "sched_other"
  | "sweep", ("sweep.census" | "sweep.merge_metrics" | "sweep.report_json") ->
    "merge"
  | "sweep", _ -> "sweep_other"
  | "fuzz", _ -> "fuzz"
  | _ -> "other"

type phase_agg = {
  phase : string;
  total_s : float;  (* summed self time *)
  count : int;
  p50_s : float;
  p99_s : float;
}

type breakdown = {
  jobs : int;
  wall_s : float;
  tracks : int;
  tasks : int;
  task_total_s : float;  (* full (not self) task durations summed *)
  task_p50_s : float;
  task_p99_s : float;
  mean_queue_depth : float;
  spans_recorded : int;
  spans_dropped : int;
  unbalanced : int;
  phases : phase_agg list;  (* sorted by total_s descending *)
}

let percentile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Self time = duration minus the durations of direct children (same
   track, depth + 1, nested inside the interval). Quadratic per track,
   fine at sweep scale; self times are clamped at 0 so a ring-dropped
   parent or child can only under-attribute, never go negative. *)
let self_times spans =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun (sp : Span.span) ->
      let l =
        match Hashtbl.find_opt by_track sp.Span.track with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add by_track sp.Span.track l;
          l
      in
      l := sp :: !l)
    spans;
  let eps = 1e-9 in
  List.map
    (fun (sp : Span.span) ->
      let siblings = !(Hashtbl.find by_track sp.Span.track) in
      let child_sum =
        List.fold_left
          (fun acc (c : Span.span) ->
            if
              c.Span.depth = sp.Span.depth + 1
              && c.Span.t0 >= sp.Span.t0 -. eps
              && c.Span.t0 +. c.Span.dur <= sp.Span.t0 +. sp.Span.dur +. eps
            then acc +. c.Span.dur
            else acc)
          0.0 siblings
      in
      (sp, max 0.0 (sp.Span.dur -. child_sum)))
    spans

let of_spans ~jobs ~wall_s t =
  let spans = Span.spans t in
  let selfs = self_times spans in
  let phase_tbl = Hashtbl.create 16 in
  List.iter
    (fun ((sp : Span.span), self) ->
      let key = phase_of sp in
      let total, samples =
        match Hashtbl.find_opt phase_tbl key with
        | Some v -> v
        | None -> (0.0, [])
      in
      Hashtbl.replace phase_tbl key (total +. self, self :: samples))
    selfs;
  let phases =
    Hashtbl.fold
      (fun phase (total_s, samples) acc ->
        { phase; total_s; count = List.length samples;
          p50_s = percentile 0.5 samples; p99_s = percentile 0.99 samples }
        :: acc)
      phase_tbl []
  in
  let phases =
    List.sort
      (fun a b ->
        match compare b.total_s a.total_s with
        | 0 -> compare a.phase b.phase
        | c -> c)
      phases
  in
  let task_spans =
    List.filter
      (fun (sp : Span.span) ->
        sp.Span.cat = "sched" && sp.Span.name = "sched.task")
      spans
  in
  let task_durs = List.map (fun (sp : Span.span) -> sp.Span.dur) task_spans in
  let depths =
    List.filter_map
      (fun (sp : Span.span) ->
        List.fold_left
          (fun acc (k, v) ->
            match (k, v) with
            | "queue_remaining", Trace.I n -> Some (float_of_int n)
            | _ -> acc)
          None sp.Span.args)
      task_spans
  in
  { jobs;
    wall_s;
    tracks = List.length (Span.track_infos t);
    tasks = List.length task_spans;
    task_total_s = List.fold_left ( +. ) 0.0 task_durs;
    task_p50_s = percentile 0.5 task_durs;
    task_p99_s = percentile 0.99 task_durs;
    mean_queue_depth =
      (match depths with
      | [] -> 0.0
      | ds -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds));
    spans_recorded = Span.recorded t;
    spans_dropped = Span.dropped t;
    unbalanced = Span.unbalanced t;
    phases }

let phase_total b key =
  List.fold_left
    (fun acc p -> if p.phase = key then acc +. p.total_s else acc)
    0.0 b.phases

(* --- Diagnosis -------------------------------------------------------- *)

type contribution = { source : string; seconds : float; detail : string }

type diagnosis = {
  base : breakdown;
  target : breakdown;
  ideal_wall_s : float;
  excess_s : float;
  contributions : contribution list;  (* sorted by seconds descending *)
  dominant : string;
  verdict : string;
}

let diagnose ~base ~target =
  let jn = float_of_int (max 1 target.jobs) in
  let ideal_wall_s = base.wall_s /. jn in
  let excess_s = target.wall_s -. ideal_wall_s in
  (* Wall-clock-attributed contributions to the excess. Per-worker CPU
     time spreads across [jobs] domains, so task inflation and
     queue/steal divide by the job count; spawn/join and merges run on
     the calling domain and count in full. *)
  let task_infl =
    (target.task_total_s -. base.task_total_s) /. jn
  in
  let queue = (phase_total target "queue_wait" +. phase_total target "steal") /. jn in
  let spawn_join = phase_total target "spawn" +. phase_total target "join" in
  let merge = phase_total target "merge" -. phase_total base "merge" in
  let jit = (phase_total target "jit" -. phase_total base "jit") /. jn in
  let attributed = task_infl +. queue +. spawn_join +. merge +. jit in
  let contributions =
    List.sort
      (fun a b -> compare b.seconds a.seconds)
      [ { source = "task_body";
          seconds = task_infl;
          detail =
            Printf.sprintf
              "task CPU time %.3fs -> %.3fs (%.2fx) across domains \
               (allocator/GC contention inside task bodies)"
              base.task_total_s target.task_total_s
              (target.task_total_s /. max 1e-9 base.task_total_s) };
        { source = "queue_wait";
          seconds = queue;
          detail =
            Printf.sprintf
              "dequeue/steal bookkeeping and worker idle gaps: %.3fs CPU"
              (phase_total target "queue_wait" +. phase_total target "steal") };
        { source = "spawn_join";
          seconds = spawn_join;
          detail =
            Printf.sprintf "domain spawn %.3fs + join (straggler wait) %.3fs"
              (phase_total target "spawn") (phase_total target "join") };
        { source = "merge";
          seconds = merge;
          detail =
            Printf.sprintf "result merge/census time %.3fs -> %.3fs"
              (phase_total base "merge") (phase_total target "merge") };
        { source = "jit";
          seconds = jit;
          detail =
            Printf.sprintf "JIT instrumentation %.3fs -> %.3fs CPU"
              (phase_total base "jit") (phase_total target "jit") };
        { source = "unattributed";
          seconds = excess_s -. attributed;
          detail = "wall-clock excess not covered by any span phase" } ]
  in
  let dominant, verdict =
    if target.jobs <= 1 then
      let top =
        match target.phases with
        | p :: _ -> Printf.sprintf "%s (%.3fs)" p.phase p.total_s
        | [] -> "none (no spans recorded)"
      in
      ( "sequential",
        Printf.sprintf
          "sequential run (jobs=1): nothing to scale; largest phase by self \
           time is %s of %.3fs wall"
          top target.wall_s )
    else if excess_s <= 0.05 *. base.wall_s then
      ( "none",
        Printf.sprintf
          "parallel mode is healthy at jobs=%d: wall %.3fs vs ideal %.3fs \
           (excess %+.3fs within noise)"
          target.jobs target.wall_s ideal_wall_s excess_s )
    else
      match contributions with
      | top :: _ ->
        ( top.source,
          Printf.sprintf
            "%s dominates the jobs=%d overhead: %+.3fs of the %+.3fs \
             wall-clock excess (wall %.3fs vs ideal %.3fs) — %s"
            top.source target.jobs top.seconds excess_s target.wall_s
            ideal_wall_s top.detail )
      | [] -> ("none", "no contributions computed")
  in
  { base; target; ideal_wall_s; excess_s; contributions; dominant; verdict }

(* --- Rendering -------------------------------------------------------- *)

let phase_json p =
  Printf.sprintf
    "{\"phase\":%s,\"total_s\":%.6f,\"count\":%d,\"p50_s\":%.6f,\"p99_s\":%.6f}"
    (Json.quote p.phase) p.total_s p.count p.p50_s p.p99_s

let breakdown_json b =
  Printf.sprintf
    "{\"jobs\":%d,\"wall_s\":%.6f,\"tracks\":%d,\"tasks\":%d,\"task_total_s\":%.6f,\"task_p50_s\":%.6f,\"task_p99_s\":%.6f,\"mean_queue_depth\":%.2f,\"spans_recorded\":%d,\"spans_dropped\":%d,\"unbalanced\":%d,\"phases\":[%s]}"
    b.jobs b.wall_s b.tracks b.tasks b.task_total_s b.task_p50_s b.task_p99_s
    b.mean_queue_depth b.spans_recorded b.spans_dropped b.unbalanced
    (String.concat "," (List.map phase_json b.phases))

let diagnosis_json d =
  let contribution_json c =
    Printf.sprintf "{\"source\":%s,\"seconds\":%.6f,\"detail\":%s}"
      (Json.quote c.source) c.seconds (Json.quote c.detail)
  in
  Printf.sprintf
    "{\"jobs_base\":%d,\"jobs\":%d,\"wall_s_base\":%.6f,\"wall_s\":%.6f,\"ideal_wall_s\":%.6f,\"excess_s\":%.6f,\"base\":%s,\"target\":%s,\"contributions\":[%s],\"dominant\":%s,\"verdict\":%s}\n"
    d.base.jobs d.target.jobs d.base.wall_s d.target.wall_s d.ideal_wall_s
    d.excess_s (breakdown_json d.base) (breakdown_json d.target)
    (String.concat "," (List.map contribution_json d.contributions))
    (Json.quote d.dominant) (Json.quote d.verdict)

let render d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "#FPX self-diagnosis: jobs=%d vs jobs=%d\n\
       \  wall: %.3fs (jobs=%d) -> %.3fs (jobs=%d); ideal %.3fs; excess \
        %+.3fs\n\
       \  tracks: %d -> %d; tasks: %d; spans: %d recorded, %d dropped\n\
       \  task latency (jobs=%d): p50 %.4fs, p99 %.4fs; mean queue depth \
        %.1f\n\n\
       \  phase breakdown (self-time CPU seconds):\n"
       d.base.jobs d.target.jobs d.base.wall_s d.base.jobs d.target.wall_s
       d.target.jobs d.ideal_wall_s d.excess_s d.base.tracks d.target.tracks
       d.target.tasks d.target.spans_recorded d.target.spans_dropped
       d.target.jobs d.target.task_p50_s d.target.task_p99_s
       d.target.mean_queue_depth);
  let keys =
    List.sort_uniq compare
      (List.map (fun p -> p.phase) (d.base.phases @ d.target.phases))
  in
  Buffer.add_string buf
    (Printf.sprintf "    %-12s %10s %10s\n" "phase"
       (Printf.sprintf "jobs=%d" d.base.jobs)
       (Printf.sprintf "jobs=%d" d.target.jobs));
  List.iter
    (fun k ->
      Buffer.add_string buf
        (Printf.sprintf "    %-12s %9.3fs %9.3fs\n" k (phase_total d.base k)
           (phase_total d.target k)))
    keys;
  Buffer.add_string buf "\n  overhead attribution (wall-clock seconds):\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "    %-13s %+8.3fs  %s\n" c.source c.seconds c.detail))
    d.contributions;
  Buffer.add_string buf (Printf.sprintf "\n  verdict: %s\n" d.verdict);
  Buffer.contents buf

(* --- Metrics export --------------------------------------------------- *)

let record_metrics t b m =
  let task_hist =
    Metrics.histogram m ~help:"Scheduler task latency (wall seconds)"
      ~buckets:[ 1e-4; 3e-4; 1e-3; 3e-3; 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0 ]
      "fpx_sched_task_seconds"
  in
  List.iter
    (fun (sp : Span.span) ->
      if sp.Span.cat = "sched" && sp.Span.name = "sched.task" then
        Metrics.observe task_hist sp.Span.dur)
    (Span.spans t);
  Metrics.set
    (Metrics.gauge m ~help:"Mean queue depth sampled at task dequeue"
       "fpx_sched_queue_depth")
    b.mean_queue_depth;
  Metrics.set
    (Metrics.gauge m ~help:"Task latency p50 (seconds)"
       "fpx_sched_task_p50_seconds")
    b.task_p50_s;
  Metrics.set
    (Metrics.gauge m ~help:"Task latency p99 (seconds)"
       "fpx_sched_task_p99_seconds")
    b.task_p99_s;
  List.iter
    (fun p ->
      Metrics.set
        (Metrics.gauge m ~help:"Self time per phase (CPU seconds)"
           (Printf.sprintf "fpx_phase_seconds{phase=%S}" p.phase))
        p.total_s)
    b.phases;
  Metrics.add_named m ~help:"Spans completed" "fpx_spans_recorded_total"
    b.spans_recorded;
  Metrics.add_named m ~help:"Spans overwritten by ring wrap-around"
    "fpx_spans_dropped_total" b.spans_dropped;
  Metrics.add_named m ~help:"end_ calls with no open frame"
    "fpx_spans_unbalanced_total" b.unbalanced
