(* The traced run: per-layer metrics, measured from outside lib/.

   Each layer is measured either by timing calls into its public
   functions, or from the wall-clock spans the program already emits,
   read from an Fpx_obs.Span recorder installed around one pass. A
   span's self time is its duration minus its direct children's. The
   GC rows come from Gc.quick_stat deltas (all domains) and from
   runtime_events pause spans over the workload's own traced pass.

   Every run covers the catalog, a campaign and the daemon, so every
   per-layer metric is reported whichever workload is named; the GC
   rows and the tracing overhead belong to the named workload's own
   pass.
   runtime_events runs only during its traced passes, and the overhead
   is the median over three alternated untraced/traced pass pairs. *)

module R = Fpx_harness.Runner
module C = Fpx_campaign.Campaign
module Span = Fpx_obs.Span
module Oracle = Perfbench.Oracle
module Stat = Perfbench.Stat
module Host = Perfbench.Host
module RE = Runtime_events

let now = Unix.gettimeofday
let word_bytes = float_of_int (Sys.word_size / 8)
let reps = 5

(* Median over [reps] repetitions of [f]'s wall time and allocation. *)
let timed ?(n = reps) f =
  let samples = Array.init n (fun _ -> Work.measure f) in
  ( Stat.median (Array.map (fun (_, w, _) -> w) samples),
    Stat.median (Array.map (fun (_, _, a) -> a) samples) )

(* ------------------------------------------------------------------ *)
(* Span self time, summed per span name: (self seconds, count). *)

let self_times rec_ =
  let tbl = Hashtbl.create 32 in
  let add name self =
    let s, c = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (s +. self, c + 1)
  in
  let spans = Span.spans rec_ in
  let tracks = List.sort_uniq compare (List.map (fun (s : Span.span) -> s.track) spans) in
  List.iter
    (fun tr ->
      let stack = ref [] in
      let close ((s : Span.span), child) = add s.name (s.dur -. !child) in
      List.iter
        (fun (s : Span.span) ->
          if s.track = tr then begin
            let rec pop () =
              match !stack with
              | ((top : Span.span), _) as f :: rest when top.depth >= s.depth ->
                close f;
                stack := rest;
                pop ()
              | _ -> ()
            in
            pop ();
            (match !stack with (_, child) :: _ -> child := !child +. s.dur | [] -> ());
            stack := (s, ref 0.) :: !stack
          end)
        spans;
      List.iter close !stack)
    tracks;
  tbl

let self tbl name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name))
let count tbl name = snd (Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name))
let total_self tbl = Hashtbl.fold (fun _ (s, _) acc -> acc +. s) tbl 0.

let spans_named rec_ name =
  List.filter (fun (s : Span.span) -> s.name = name) (Span.spans rec_)

(* ------------------------------------------------------------------ *)
(* GC pauses from runtime_events: summed durations of EV_MINOR,
   EV_MAJOR_SLICE and EV_STW_LEADER across every domain's ring, polled
   by a thread while the pass runs. *)

type gc_events = { cursor : RE.cursor; cb : RE.Callbacks.t; ms : float array }

let gc_events () =
  RE.start ();
  RE.pause ();
  let starts = Hashtbl.create 16 in
  let ms = [| 0.; 0.; 0. |] in
  let slot = function
    | RE.EV_MINOR -> 0
    | RE.EV_MAJOR_SLICE -> 1
    | RE.EV_STW_LEADER -> 2
    | _ -> -1
  in
  let ts t = RE.Timestamp.to_int64 t in
  let runtime_begin ring t ph =
    let i = slot ph in
    if i >= 0 then Hashtbl.replace starts (ring, i) (ts t)
  in
  let runtime_end ring t ph =
    let i = slot ph in
    if i >= 0 then
      match Hashtbl.find_opt starts (ring, i) with
      | Some t0 ->
        Hashtbl.remove starts (ring, i);
        ms.(i) <- ms.(i) +. (Int64.to_float (Int64.sub (ts t) t0) /. 1e6)
      | None -> ()
  in
  let cb = RE.Callbacks.create ~runtime_begin ~runtime_end () in
  { cursor = RE.create_cursor None; cb; ms }

let poll g = ignore (RE.read_poll g.cursor g.cb None)

let with_gc_events g f =
  poll g;
  Array.fill g.ms 0 3 0.;
  RE.resume ();
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          poll g;
          Thread.delay 0.002
        done)
      ()
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        RE.pause ();
        Atomic.set stop true;
        Thread.join th)
      f
  in
  poll g;
  (r, Array.copy g.ms)

(* A traced pass of the named workload: recorder installed, GC stats
   and pause spans collected. *)
type traced = {
  rec_ : Span.t;
  wall : float;
  gc : (string * float) list;
  overhead : float;  (** traced over untraced wall, minus one *)
}

let trace_pass ~gc ~ops f =
  let rec_ = Span.create () in
  let q0 = Gc.quick_stat () and f0 = Host.minor_faults () in
  let ((r, wall, _), pauses) =
    match gc with
    | Some g -> with_gc_events g (fun () -> Work.measure (fun () -> Span.with_installed rec_ f))
    | None -> (Work.measure (fun () -> Span.with_installed rec_ f), [| 0.; 0.; 0. |])
  in
  let q1 = Gc.quick_stat () and f1 = Host.minor_faults () in
  let per x = x /. float_of_int ops in
  let d f = per (f q1 -. f q0) in
  let di f = per (float_of_int (f q1 - f q0)) in
  let gc_rows =
    [ ("gc.minor_words_per_op", d (fun q -> q.Gc.minor_words));
      ("gc.promoted_words_per_op", d (fun q -> q.Gc.promoted_words));
      ("gc.major_words_per_op", d (fun q -> q.Gc.major_words));
      ("gc.minor_collections_per_op", di (fun q -> q.Gc.minor_collections));
      ("gc.major_collections_per_op", di (fun q -> q.Gc.major_collections));
      ("gc.minor_pause_ms_per_op", per pauses.(0));
      ("os.minor_faults_per_op", per (float_of_int (f1 - f0)));
      ("gc.major_pause_ms_per_op", per pauses.(1));
      ("gc.stw_ms_per_op", per pauses.(2)) ]
  in
  (r, { rec_; wall; gc = (if gc = None then [] else gc_rows); overhead = 0. })

(* An untraced then a traced pass of [f], alternated three times for
   the named workload (once for the others, which report no overhead):
   the last pair's results, and the median overhead over the pairs. *)
let paired ~gc ~ops f =
  let n = if gc = None then 1 else 3 in
  let runs =
    List.init n (fun _ ->
        let u, wall_u, _ = Work.measure f in
        let t, tr = trace_pass ~gc ~ops f in
        (u, wall_u, t, tr))
  in
  let u, wall_u, t, tr = List.nth runs (n - 1) in
  let overhead =
    Stat.median
      (Array.of_list (List.map (fun (_, wu, _, tr) -> tr.wall /. wu -. 1.) runs))
  in
  (u, wall_u, t, { tr with overhead })

(* ------------------------------------------------------------------ *)
(* Layer calls timed in isolation. *)

let layer_calls () =
  let kernels =
    List.concat_map (fun (w : Fpx_workloads.Workload.t) -> w.kernels)
      Fpx_workloads.Catalog.evaluated
  in
  let nk = float_of_int (List.length kernels) in
  let compile () = List.map (fun k -> Fpx_klang.Compile.compile k) kernels in
  let c_wall, c_words = timed (fun () -> ignore (compile ())) in
  let progs = compile () in
  let instrs = float_of_int (List.fold_left (fun a p -> a + Fpx_sass.Program.length p) 0 progs) in
  let d_wall, _ = timed (fun () -> ignore (List.map Fpx_gpu.Decode.program progs)) in
  let creates = 20 in
  let dev_wall, dev_words =
    timed (fun () -> for _ = 1 to creates do ignore (Fpx_gpu.Device.create ()) done)
  in
  [ ("klang.compile_us_per_kernel", c_wall /. nk *. 1e6);
    ("klang.compile_kw_per_kernel", c_words /. nk /. 1e3);
    ("gpu.device_create_us", dev_wall /. float_of_int creates *. 1e6);
    ("gpu.device_alloc_mb", dev_words *. word_bytes /. 1e6 /. float_of_int creates);
    ("gpu.decode_ns_per_static_instr", d_wall /. instrs *. 1e9) ]

(* ------------------------------------------------------------------ *)
(* Catalog: an untraced detector pass, a traced detector pass, and a
   traced bare (No_tool) pass, so exec and detector separate. *)

let catalog ~oracle ~tally ~seed ~gc =
  let order =
    Work.shuffle (Random.State.make [| seed |])
      (Array.of_list Fpx_workloads.Catalog.evaluated)
  in
  let check = (oracle, tally) in
  let n = Array.length order in
  let fn = float_of_int n in
  ignore (Work.catalog_ops ~tool:Work.detector ~check order);
  let (ms_u, _), wall_u, (ms, _), det =
    paired ~gc ~ops:n (fun () -> Work.catalog_ops ~tool:Work.detector ~check order)
  in
  let (ms_b, _), bare = trace_pass ~gc:None ~ops:n (fun () -> Work.catalog_ops ~tool:R.No_tool order) in
  let sum f a =
    float_of_int
      (Array.fold_left
         (fun acc c -> match c with Some c -> acc + f c | None -> failwith "catalog: a run raised")
         0 a)
  in
  let dyn = sum (fun c -> c.Work.dyn_instrs) ms and dyn_b = sum (fun c -> c.Work.dyn_instrs) ms_b in
  let st = self_times det.rec_ and st_b = self_times bare.rec_ in
  let per_count name = self st name /. float_of_int (max 1 (count st name)) *. 1e6 in
  (* One run per program, its report rendered [k] times; no
     measurement outlives its program. *)
  let json_wall =
    let k = 20 in
    Array.fold_left
      (fun acc w ->
        let m = R.run ~tool:Work.detector w in
        let (), wall, _ = Work.measure (fun () -> for _ = 1 to k do ignore (R.to_json m) done) in
        acc +. (wall /. float_of_int k))
      0. order
  in
  let dyn_u = sum (fun c -> c.Work.dyn_instrs) ms_u in
  ( [ ("gpu.exec_ns_per_warp_instr", self st_b "exec.launch" /. dyn_b *. 1e9);
      ("gpu.sim_minstrs_per_s", dyn_u /. wall_u /. 1e6);
      ("core.detector_ns_per_warp_instr",
       (self st "exec.launch" -. self st_b "exec.launch") /. dyn *. 1e9);
      ("core.records_per_op", sum (fun c -> c.Work.records) ms /. fn);
      ("nvbit.jit_decode_us_per_kernel", per_count "jit.decode");
      ("nvbit.jit_instrument_us_per_kernel", per_count "jit.instrument");
      ("nvbit.launches_per_op", float_of_int (count st "exec.launch") /. fn);
      ("gpu.channel_drain_us_per_launch", per_count "launch.drain");
      ("harness.run_setup_us_per_op", self st "run.setup" /. fn *. 1e6);
      ("harness.run_body_self_us_per_op", self st "run.body" /. fn *. 1e6);
      ("harness.run_report_us_per_op", self st "run.report" /. fn *. 1e6);
      ("harness.to_json_us_per_op", json_wall /. fn *. 1e6);
      ("trace.catalog_coverage_frac", total_self st /. det.wall) ],
    det )

(* ------------------------------------------------------------------ *)
(* Campaign: golden profiling alone (total 0), then untraced and traced
   passes of campaign_total injections at [jobs]. *)

let campaign ~jobs ~oracle ~tally ~seed ~gc =
  let pool = if jobs > 1 then Some (Fpx_sched.Sched.Pool.create ~jobs ()) else None in
  let store = Work.scratch_dir "ledger-campaign" in
  let total = Work.campaign_total in
  let plan = Work.plan_seeds.(abs (seed mod Array.length Work.plan_seeds)) in
  let cfg total = Work.campaign_config ~jobs ~store ~plan ~total in
  let golden_wall, _ = timed ~n:3 (fun () -> ignore (C.run ?pool (cfg 0))) in
  let check s =
    Oracle.record ~ops:total tally oracle ~kind:"campaign"
      ~key:(Printf.sprintf "%d/%d" plan total) (Some (C.summary_json s))
  in
  check (C.run ?pool (cfg total));
  let s_u, _, s, tr = paired ~gc ~ops:total (fun () -> C.run ?pool (cfg total)) in
  check s_u;
  check s;
  Option.iter Fpx_sched.Sched.Pool.shutdown pool;
  Work.remove_tree store;
  let tasks = spans_named tr.rec_ "sched.task" in
  let busy = List.fold_left (fun a (t : Span.span) -> a +. t.dur) 0. tasks in
  (* Per batch: how long the first worker to run dry waits for the last. *)
  let straggler (m : Span.span) =
    let ends = Hashtbl.create 4 in
    List.iter
      (fun (t : Span.span) ->
        let e = t.t0 +. t.dur in
        if t.t0 >= m.t0 && e <= m.t0 +. m.dur then
          Hashtbl.replace ends t.track
            (max e (Option.value ~default:0. (Hashtbl.find_opt ends t.track))))
      tasks;
    let es = List.of_seq (Hashtbl.to_seq_values ends) in
    match es with
    | [] -> 0.
    | e :: rest ->
      List.fold_left max e rest -. List.fold_left min e rest
  in
  let maps = Array.of_list (List.map straggler (spans_named tr.rec_ "sched.map")) in
  let inj = Array.of_list (List.map (fun (s : Span.span) -> s.dur) (spans_named tr.rec_ "campaign.injection")) in
  let hangs = List.length (List.filter (fun r -> r.C.outcome = C.Hang) s.C.results) in
  let rt_wall, _ =
    timed (fun () ->
        List.iter (fun r -> ignore (C.result_of_line (C.result_to_line r))) s.C.results)
  in
  ( [ ("sched.worker_busy_frac", busy /. (tr.wall *. float_of_int jobs));
      ("sched.batch_straggler_ms", 1e3 *. Stat.median maps);
      ("campaign.golden_ms", 1e3 *. golden_wall);
      ("campaign.injection_p50_ms", 1e3 *. Stat.median inj);
      ("campaign.hang_frac", float_of_int hangs /. float_of_int total);
      ("campaign.line_roundtrip_us", rt_wall /. float_of_int total *. 1e6) ],
    tr )

(* ------------------------------------------------------------------ *)
(* Serve: a Zipf-skewed request stream through the daemon, warm-up,
   untraced and traced; then single protocol pieces timed in isolation. *)

let serve ~oracle ~tally ~seed =
  let module S = Fpx_serve.Server in
  let module Cache = Fpx_serve.Cache in
  let module Client = Fpx_serve.Client in
  let module J = Fpx_serve.Json in
  let d = Work.daemon_start () in
  let stream = Work.serve_stream ~seed in
  let nreq = Array.length stream in
  let sent = ref 0 in
  let pass () =
    ignore (Work.serve_ops d ~oracle ~tally stream);
    sent := !sent + nreq
  in
  pass ();
  let c0 = Cache.stats (S.cache d.server) in
  let th0 = Host.threads () and rss0 = Host.status_kb "VmRSS" and sent0 = !sent in
  let (), _, (), _ = paired ~gc:None ~ops:nreq pass in
  let th1 = Host.threads () and rss1 = Host.status_kb "VmRSS" in
  let c1 = Cache.stats (S.cache d.server) in
  let nreq = !sent - sent0 in
  let hits = c1.Cache.hits - c0.Cache.hits and misses = c1.Cache.misses - c0.Cache.misses in
  let per_call ?(k = 200) f =
    let wall, _ = timed (fun () -> for _ = 1 to k do f () done) in
    wall /. float_of_int k *. 1e6
  in
  (* The stream's first request was answered before, so it hits. *)
  let hot = snd stream.(0) in
  let resp = S.handle d.server hot in
  let handle_us = per_call (fun () -> ignore (S.handle d.server hot)) in
  let parse_us = per_call ~k:1000 (fun () -> ignore (J.parse resp)) in
  let connect_us = per_call (fun () -> Client.close (Client.connect_unix d.socket)) in
  let cache = Cache.create ~capacity:64 (Fpx_obs.Metrics.create ()) in
  let ckeys = Array.init 64 (fun i -> Printf.sprintf "k%d" i) in
  Array.iter (fun k -> ignore (Cache.find_or_compute cache k (fun () -> resp))) ckeys;
  let find_us =
    per_call ~k:100 (fun () -> Array.iter (fun k -> ignore (Cache.find cache k)) ckeys)
    /. 64.
  in
  Work.daemon_stop d;
  let per_k x = float_of_int x *. 1000. /. float_of_int nreq in
  [ ("serve.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
    ("serve.evictions_per_req",
     float_of_int (c1.Cache.evictions - c0.Cache.evictions) /. float_of_int nreq);
    ("serve.coalesced", float_of_int (c1.Cache.coalesced - c0.Cache.coalesced));
    ("serve.handle_hit_us", handle_us);
    ("serve.json_parse_us", parse_us);
    ("serve.cache_find_us", find_us);
    ("serve.connect_us", connect_us);
    ("serve.threads_per_1k_conn", per_k (th1 - th0));
    ("serve.rss_kb_per_1k_conn", per_k (rss1 - rss0)) ]

let run ~oracle ~tally ~workload ~seed =
  let g = gc_events () in
  let own name = if name = workload then Some g else None in
  let layers = layer_calls () in
  let cat, cat_tr = catalog ~oracle ~tally ~seed ~gc:(own "catalog-sweep") in
  (* For campaign-seq the campaign section is that workload's own pass,
     at jobs=1; otherwise it runs on a pool of nproc workers, so the
     sched rows have workers to measure. *)
  let jobs = if workload = "campaign-seq" then 1 else Fpx_sched.Sched.recommended_jobs () in
  let camp, camp_tr = campaign ~jobs ~oracle ~tally ~seed ~gc:(own "campaign-seq") in
  let srv = serve ~oracle ~tally ~seed in
  let tr = if workload = "catalog-sweep" then cat_tr else camp_tr in
  layers @ cat @ camp @ srv @ tr.gc @ [ ("trace.overhead_frac", tr.overhead) ]
