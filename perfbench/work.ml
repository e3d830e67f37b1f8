module R = Fpx_harness.Runner
module C = Fpx_campaign.Campaign
module Server = Fpx_serve.Server
module Client = Fpx_serve.Client
module J = Fpx_serve.Json
module Oracle = Perfbench.Oracle
module Span = Fpx_obs.Span

type pass = {
  wall : float;
  lat : float array;
  alloc_words : float;
  rss_kb : int;
  steal : int;
}
type t = { run_pass : unit -> pass; stop : unit -> unit; cycle : int }

let now = Unix.gettimeofday

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let measure f =
  let a0 = allocated () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  (r, wall, allocated () -. a0)

(* A pass record around [f], which returns the op latencies. RSS and
   host steal ticks are diagnostics for the context line. *)
let timed_pass f =
  let s0 = Perfbench.Host.steal_ticks () in
  let lat, wall, alloc_words = measure f in
  { wall; lat; alloc_words; rss_kb = Perfbench.Host.status_kb "VmRSS";
    steal = Perfbench.Host.steal_ticks () - s0 }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* Scratch space: everything a run writes stays under .bench_tmp/ in
   the working directory, and is removed when the workload stops. *)

let rec remove_tree p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_dir tag =
  let root = ".bench_tmp" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat root (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  remove_tree d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* catalog-sweep: every evaluated program under the default detector,
   one Runner.run per op, at jobs=1. *)

let detector = R.Detector Gpu_fpx.Detector.default_config

(* Program names repeat across suites (GEMM, bfs, ...). *)
let catalog_key (w : Fpx_workloads.Workload.t) =
  Fpx_workloads.Workload.suite_to_string w.suite ^ "/" ^ w.name

type counts = { dyn_instrs : int; records : int }

(* Only counts outlive an op: a measurement keeps its run's device
   state reachable, and holding a pass's 151 measurements took resident
   memory from about 20 MB to 0.8 GB, rising to 2 GB over later passes
   as the garbage outran the major GC. *)
let catalog_ops ~tool ?check progs =
  let counts = Array.make (Array.length progs) None in
  let lat =
    Array.mapi
      (fun i (w : Fpx_workloads.Workload.t) ->
        let t0 = now () in
        let out =
          match R.run ~tool w with
          | m ->
            counts.(i) <- Some { dyn_instrs = m.R.dyn_instrs; records = m.R.records };
            if m.R.status = R.Completed then Some (R.to_json m) else None
          | exception _ -> None
        in
        let dt = now () -. t0 in
        Option.iter
          (fun (oracle, tally) ->
            Oracle.record tally oracle ~kind:"catalog" ~key:(catalog_key w) out)
          check;
        dt)
      progs
  in
  (counts, lat)

let catalog ~oracle ~tally ~seed =
  let progs = Array.of_list Fpx_workloads.Catalog.evaluated in
  let k = ref 0 in
  (* The warm-up pass runs the catalog in its own order, as fpx_run
     sweep does; timed passes run in a seeded order each. *)
  let run_pass () =
    let order =
      if !k = 0 then progs else shuffle (Random.State.make [| seed; !k |]) progs
    in
    incr k;
    timed_pass (fun () -> snd (catalog_ops ~tool:detector ~check:(oracle, tally) order))
  in
  { run_pass; stop = ignore; cycle = 1 }

(* ------------------------------------------------------------------ *)
(* campaign-seq: Campaign.run over the default programs at jobs=1,
   which never touches Domain, store in a fresh directory, one
   injection per op. A pass draws its plan from [plan_seeds], whose
   summaries are pinned. Injection latency is read from the
   campaign.injection spans the campaign emits; nothing else observes
   single injections. *)

let plan_seeds = [| 1; 2; 3; 4; 5; 6; 7; 8 |]
let campaign_total = 200

let campaign_config ~jobs ~store ~plan ~total =
  C.config ~jobs ~store ~minimize:false ~seed:plan ~total ()

let injection_latencies rec_ =
  Span.spans rec_
  |> List.filter (fun (s : Span.span) -> s.name = "campaign.injection")
  |> List.map (fun (s : Span.span) -> s.dur)
  |> Array.of_list

let campaign ~oracle ~tally ~seed =
  let store = scratch_dir "campaign" in
  let order = shuffle (Random.State.make [| seed |]) plan_seeds in
  let k = ref 0 in
  (* The warm-up pass runs the first pinned plan, so set-up does the
     same work whatever the seed; timed passes cycle through every
     plan in a seeded order, so each run weighs the plans alike. *)
  let run_pass () =
    let plan =
      if !k = 0 then plan_seeds.(0)
      else order.((!k - 1) mod Array.length order)
    in
    incr k;
    let cfg = campaign_config ~jobs:1 ~store ~plan ~total:campaign_total in
    let rec_ = Span.create ~capacity:16384 () in
    let out = ref None in
    let p =
      timed_pass (fun () ->
          (match Span.with_installed rec_ (fun () -> C.run cfg) with
          | s -> out := Some (C.summary_json s)
          | exception _ -> ());
          [||])
    in
    Oracle.record tally oracle ~ops:campaign_total ~kind:"campaign"
      ~key:(Printf.sprintf "%d/%d" plan campaign_total)
      !out;
    { p with lat = injection_latencies rec_ }
  in
  { run_pass; stop = (fun () -> remove_tree store); cycle = Array.length plan_seeds }

(* ------------------------------------------------------------------ *)
(* The daemon the traced run drives: in process, on a Unix socket, one
   closed-loop client, a fresh connection per request. Keys are
   Zipf-skewed over every catalog program x {detect, analyze}, more
   keys than the cache holds, so the stream mixes hits with misses that
   compute, insert and evict. *)

let cache_capacity = 64
let serve_requests = 1000
let zipf_s = 1.1

let serve_keys =
  Array.of_list
    (List.concat_map
       (fun tool ->
         List.map (fun p -> (tool, p))
           (List.sort_uniq compare (Fpx_workloads.Catalog.names ())))
       [ "detect"; "analyze" ])

let submit_request (tool, program) =
  J.to_string
    (J.Obj [ ("op", J.Str "submit"); ("tool", J.Str tool); ("program", J.Str program) ])

type daemon = {
  server : Server.t;
  socket : string;
  thread : Thread.t;
  dir : string;
}

let daemon_start () =
  let dir = scratch_dir "serve" in
  let socket = Filename.concat dir "d.sock" in
  let server =
    Server.create
      ~config:
        { Server.default_config with
          jobs = Fpx_sched.Sched.recommended_jobs ();
          queue = 16;
          cache_capacity }
      ()
  in
  let thread = Thread.create (fun () -> Server.serve ~unix_socket:socket server) () in
  let rec wait n =
    if n > 500 then failwith "serve: daemon did not come up";
    if not (Sys.file_exists socket) then begin
      Thread.delay 0.01;
      wait (n + 1)
    end
  in
  wait 0;
  { server; socket; thread; dir }

let daemon_stop d =
  Server.stop d.server;
  Thread.join d.thread;
  Server.shutdown d.server;
  remove_tree d.dir

(* One fixed Zipf sample of requests, over a fixed popularity ranking;
   the seed shuffles its order. With a seeded sample, which programs
   landed in the cold tail decided the cost of the misses, and moved
   ops_per_s across seeds by almost 2x. *)
let zipf_stream ~seed n =
  let rng = Random.State.make [| 0 |] in
  let keys = shuffle rng serve_keys in
  let w = Array.mapi (fun r _ -> 1. /. (float_of_int (r + 1) ** zipf_s)) keys in
  let total = Array.fold_left ( +. ) 0. w in
  let sample =
    Array.init n (fun _ ->
        let u = Random.State.float rng total in
        let rec pick i acc =
          if i = Array.length w - 1 || acc +. w.(i) > u then keys.(i)
          else pick (i + 1) (acc +. w.(i))
        in
        pick 0 0.)
  in
  shuffle (Random.State.make [| seed |]) sample

let serve_stream ~seed =
  Array.map (fun k -> (k, submit_request k)) (zipf_stream ~seed serve_requests)

let serve_ops d ~oracle ~tally stream =
  Array.map
    (fun ((tool, program), req) ->
      let t0 = now () in
      let out =
        match
          let c = Client.connect_unix d.socket in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              Client.request c req)
        with
        | resp when J.str_field "status" (J.parse resp) = Some "ok" -> Some resp
        | _ | (exception _) -> None
      in
      let dt = now () -. t0 in
      Oracle.record tally oracle ~kind:"serve" ~key:(tool ^ "/" ^ program) out;
      dt)
    stream

let start name ~oracle ~tally ~seed =
  match name with
  | "catalog-sweep" -> catalog ~oracle ~tally ~seed
  | "campaign-seq" -> campaign ~oracle ~tally ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
