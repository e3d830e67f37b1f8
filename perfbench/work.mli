(** The workloads. Each is started once (set-up), then run pass
    after pass over a fixed, seeded list of ops. A pass reports its
    host wall time, every op's latency, and the words allocated across
    all domains while it ran ({!Gc.quick_stat}, never the domain-local
    {!Gc.counters}). Every op's output is checked against the pinned
    {!Perfbench.Oracle}. *)

type pass = {
  wall : float;  (** s *)
  lat : float array;  (** per-op s *)
  alloc_words : float;  (** minor + major - promoted, all domains *)
  rss_kb : int;  (** VmRSS when the pass ended *)
  steal : int;  (** host steal ticks, all CPUs, while the pass ran *)
}

type t = {
  run_pass : unit -> pass;
  stop : unit -> unit;
  cycle : int;  (** timed passes that together run every input once *)
}

val start :
  string -> oracle:Perfbench.Oracle.t -> tally:Perfbench.Oracle.tally ->
  seed:int -> t
(** ["catalog-sweep"] or ["campaign-seq"].
    @raise Invalid_argument on any other name. *)

val measure : (unit -> 'a) -> 'a * float * float
(** [(result, wall s, words allocated)] around a thunk. *)

(** {1 Pieces the traced run reuses} *)

val detector : Fpx_harness.Runner.tool_config
(** The default detector, the tool of catalog-sweep. *)

val catalog_key : Fpx_workloads.Workload.t -> string
(** [SUITE/PROGRAM]: names alone repeat across suites. *)

type counts = { dyn_instrs : int; records : int }
(** Of one {!Fpx_harness.Runner.measurement}. *)

val catalog_ops :
  tool:Fpx_harness.Runner.tool_config ->
  ?check:Perfbench.Oracle.t * Perfbench.Oracle.tally ->
  Fpx_workloads.Workload.t array ->
  counts option array * float array
(** Run each program once ([Runner.run] then [Runner.to_json] is one
    op), returning each run's counts ([None] where the run raised) and
    op latencies; no measurement outlives its op. With [check], each
    report is checked against the pinned digest. *)

val plan_seeds : int array
(** Campaign plan seeds whose summaries are pinned. *)

val campaign_total : int
(** Injections per campaign pass. *)

val campaign_config :
  jobs:int -> store:string -> plan:int -> total:int ->
  Fpx_campaign.Campaign.config

val serve_keys : (string * string) array
(** Every distinct [(tool, program)] pair the daemon's request stream
    can hold. *)

val submit_request : string * string -> string

type daemon = {
  server : Fpx_serve.Server.t;
  socket : string;
  thread : Thread.t;
  dir : string;
}

val daemon_start : unit -> daemon
val daemon_stop : daemon -> unit

val serve_stream : seed:int -> ((string * string) * string) array
(** The Zipf-skewed request list of one pass through the daemon, in an
    order the seed shuffles:
    [((tool, program), request JSON)]. *)

val serve_ops :
  daemon -> oracle:Perfbench.Oracle.t -> tally:Perfbench.Oracle.tally ->
  ((string * string) * string) array -> float array
(** Send each request on a fresh connection, check the reply, and
    return the latencies. *)

val shuffle : Random.State.t -> 'a array -> 'a array

val scratch_dir : string -> string
(** A fresh directory under [.bench_tmp/] in the working directory. *)

val remove_tree : string -> unit
