(* Multi-tenant partitioning: the bandwidth meter's integer QoS math,
   tenant spec parsing, per-tenant serve quotas, and the executor's two
   headline properties — unpartitioned interference is measurable, and
   compute+memory partitioning keeps a victim's exception report
   byte-identical to running alone. *)

module Mt = Fpx_tenancy.Mt
module Tenant = Fpx_tenancy.Tenant
module Quota = Fpx_tenancy.Quota
module Bw = Fpx_gpu.Bandwidth
module Cost = Fpx_gpu.Cost
module R = Fpx_harness.Runner

(* --- Bandwidth meter math --------------------------------------------- *)

let mk_meter ?partition () =
  Bw.create ?partition ~cost:Cost.default
    ~shares:[| (0.5, 0.5); (0.5, 0.5) |] ()

let test_meter_idle () =
  let m = mk_meter () in
  Alcotest.(check int) "no neighbour records" 0
    (Bw.neighbour_records m ~tenant:0);
  Alcotest.(check int) "no stall" 0 (Bw.push_stall m ~tenant:0);
  Alcotest.(check int) "full capacity"
    Cost.default.Cost.channel_capacity
    (Bw.effective_capacity m ~tenant:0);
  Alcotest.(check int) "full drain" 10 (Bw.drain_budget m ~tenant:0 ~queued:10)

let test_meter_pressure () =
  let m = mk_meter () in
  Bw.note_launch m ~tenant:1 ~records:5000 ~warps:8;
  Alcotest.(check int) "neighbour records" 5000
    (Bw.neighbour_records m ~tenant:0);
  Alcotest.(check int) "neighbour warps" 8 (Bw.neighbour_warps m ~tenant:0);
  (* own pressure never counts against oneself *)
  Alcotest.(check int) "own records invisible" 0
    (Bw.neighbour_records m ~tenant:1);
  (* 5000 records over 1024 tokens: stall = 300 * (1 + 5000/4096) *)
  Alcotest.(check int) "push stall" 600 (Bw.push_stall m ~tenant:0);
  (* capacity floor: 1024 - 5000/4 < 32 *)
  Alcotest.(check int) "capacity floored" 32
    (Bw.effective_capacity m ~tenant:0);
  (* budget = queued * tokens / (tokens + neighbour_records) *)
  Alcotest.(check int) "drain budget throttled"
    (100 * 1024 / (1024 + 5000))
    (Bw.drain_budget m ~tenant:0 ~queued:100);
  Alcotest.(check bool) "budget at least 1 when queued" true
    (Bw.drain_budget m ~tenant:0 ~queued:1 >= 1);
  (* 16 own + 8 neighbour warps on 16 slots: shared over-subscription
     minus what the tenant would cost alone *)
  Alcotest.(check int) "unpartitioned dilation" 500
    (Bw.contention_cycles m ~tenant:0 ~warps:16 ~base:1000);
  Bw.retire m ~tenant:1;
  Alcotest.(check int) "retired neighbour exerts nothing" 0
    (Bw.neighbour_records m ~tenant:0)

let test_meter_partitioned () =
  let m = mk_meter ~partition:Bw.Compute_memory () in
  Bw.note_launch m ~tenant:1 ~records:5000 ~warps:8;
  Alcotest.(check int) "reserved lane: no stall" 0
    (Bw.push_stall m ~tenant:0);
  Alcotest.(check int) "reserved lane: full capacity"
    Cost.default.Cost.channel_capacity
    (Bw.effective_capacity m ~tenant:0);
  Alcotest.(check int) "reserved lane: full drain" 100
    (Bw.drain_budget m ~tenant:0 ~queued:100);
  (* partitioned contention is the tenant's own over-subscription of
     its half (8 slots): 16 warps on 8 slots at base 1000 *)
  Alcotest.(check int) "own-slice dilation" 1000
    (Bw.contention_cycles m ~tenant:0 ~warps:16 ~base:1000);
  Alcotest.(check int) "within own slice: free" 0
    (Bw.contention_cycles m ~tenant:0 ~warps:8 ~base:1000)

let test_partition_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (Bw.partition_to_string p) true
        (Bw.partition_of_string (Bw.partition_to_string p) = Some p))
    [ Bw.No_partition; Bw.Compute_only; Bw.Compute_memory ];
  Alcotest.(check bool) "compute+memory alias" true
    (Bw.partition_of_string "compute+memory" = Some Bw.Compute_memory);
  Alcotest.(check bool) "unknown" true (Bw.partition_of_string "x" = None)

(* --- Tenant specs ------------------------------------------------------ *)

let test_tenant_parse () =
  (match Tenant.parse "a=myocyte" with
  | Ok t ->
    Alcotest.(check string) "id" "a" t.Tenant.id;
    Alcotest.(check string) "program" "myocyte" t.Tenant.program;
    Alcotest.(check int) "priority" 1 t.Tenant.priority
  | Error e -> Alcotest.fail e);
  (match Tenant.parse "b=hotspot:binfpe:0.25:2" with
  | Ok t ->
    Alcotest.(check bool) "tool" true (t.Tenant.tool = R.Binfpe);
    Alcotest.(check (float 1e-9)) "slot share" 0.25 t.Tenant.slot_share;
    Alcotest.(check (float 1e-9)) "mem share" 0.25 t.Tenant.mem_share;
    Alcotest.(check int) "priority" 2 t.Tenant.priority
  | Error e -> Alcotest.fail e);
  let bad s =
    match Tenant.parse s with
    | Ok _ -> Alcotest.fail (s ^ " must not parse")
    | Error _ -> ()
  in
  bad "no-equals";
  bad "a=p:unknown-tool";
  bad "a=p:detect:1.5";
  bad "a=p:detect:0.5:0"

let test_tool_of_string () =
  Alcotest.(check bool) "native" true
    (Tenant.tool_of_string "native" = Some R.No_tool);
  Alcotest.(check bool) "binfpe" true
    (Tenant.tool_of_string "binfpe" = Some R.Binfpe);
  (match Tenant.tool_of_string "detect-backoff" with
  | Some (R.Detector c) ->
    Alcotest.(check bool) "backoff on" true c.Gpu_fpx.Detector.adaptive_backoff
  | _ -> Alcotest.fail "detect-backoff");
  Alcotest.(check bool) "unknown" true (Tenant.tool_of_string "x" = None)

(* --- Quotas ------------------------------------------------------------ *)

let test_quota () =
  let q = Quota.create ~capacity:4 [ ("a", 1) ] in
  Alcotest.(check int) "explicit limit" 1 (Quota.limit q "a");
  Alcotest.(check int) "default limit = capacity" 4 (Quota.limit q "b");
  Alcotest.(check bool) "first admit" true (Quota.admit q "a");
  Alcotest.(check bool) "over quota" false (Quota.admit q "a");
  Alcotest.(check int) "shed counted" 1 (Quota.shed q "a");
  Quota.release q "a";
  Alcotest.(check bool) "slot freed" true (Quota.admit q "a");
  Alcotest.(check int) "admitted total" 2 (Quota.admitted q "a");
  Alcotest.(check bool) "other tenant unaffected" true (Quota.admit q "b");
  Alcotest.(check (list string)) "tenants sorted" [ "a"; "b" ]
    (Quota.tenants q);
  Alcotest.check_raises "quota < 1 rejected"
    (Invalid_argument "Quota.create: quota for z must be >= 1") (fun () ->
      ignore (Quota.create ~capacity:4 [ ("z", 0) ]))

let test_quota_default_override () =
  let q = Quota.create ~default_limit:2 ~capacity:8 [] in
  Alcotest.(check int) "default override" 2 (Quota.limit q "anyone");
  Alcotest.(check bool) "1st" true (Quota.admit q "anyone");
  Alcotest.(check bool) "2nd" true (Quota.admit q "anyone");
  Alcotest.(check bool) "3rd shed" false (Quota.admit q "anyone")

(* --- The executor: isolation, interference, determinism --------------- *)

let backoff =
  R.Detector { Gpu_fpx.Detector.default_config with adaptive_backoff = true }

let victim =
  Tenant.make ~tool:backoff ~slot_share:0.5 ~mem_share:0.5 ~program:"myocyte"
    "victim"

let aggressor =
  Tenant.make ~tool:R.Binfpe ~slot_share:0.5 ~mem_share:0.5 ~program:"hotspot"
    "aggressor"

let solo = lazy (Mt.solo victim)
let shared = lazy (Mt.run ~partition:Bw.No_partition [ aggressor; victim ])
let fenced = lazy (Mt.run ~partition:Bw.Compute_memory [ aggressor; victim ])

let victim_of (r : Mt.result) =
  List.find (fun (o : Mt.outcome) -> o.Mt.tenant.Tenant.id = "victim")
    r.Mt.outcomes

let test_interference_measurable () =
  let o = victim_of (Lazy.force shared) in
  let s = Lazy.force solo in
  Alcotest.(check bool) "contention charged" true
    (o.Mt.contention_cycles > 0);
  Alcotest.(check bool) "slower than solo" true
    (o.Mt.total_cycles > s.Mt.total_cycles);
  Alcotest.(check bool) "drains throttled" true (o.Mt.drains_delayed > 0);
  Alcotest.(check bool) "findings stranded" true (o.Mt.records_stranded > 0);
  Alcotest.(check bool) "fewer records seen" true
    (o.Mt.records_seen < s.Mt.records_seen);
  Alcotest.(check bool) "report corrupted" true
    (Mt.report_text o <> Mt.report_text s)

let test_partitioned_report_identical () =
  let o = victim_of (Lazy.force fenced) in
  let s = Lazy.force solo in
  Alcotest.(check string) "report byte-identical to solo"
    (Mt.report_text s) (Mt.report_text o);
  Alcotest.(check int) "no contention" 0 o.Mt.contention_cycles;
  Alcotest.(check int) "no delayed drains" 0 o.Mt.drains_delayed;
  Alcotest.(check int) "nothing stranded" 0 o.Mt.records_stranded;
  Alcotest.(check int) "same cycles as solo" s.Mt.total_cycles
    o.Mt.total_cycles

let test_solo_matches_plain_run () =
  (* the one-tenant co-run must be the same run as an unmetered
     Runner.run: same counts, same log, same records *)
  let s = Lazy.force solo in
  let w = Fpx_workloads.Catalog.find "myocyte" in
  let m = R.run ~tool:backoff w in
  Alcotest.(check int) "records" m.R.records s.Mt.m.R.records;
  Alcotest.(check bool) "counts" true (m.R.counts = s.Mt.m.R.counts);
  Alcotest.(check bool) "log" true (m.R.log = s.Mt.m.R.log)

let test_determinism () =
  let again = Mt.run ~partition:Bw.No_partition [ aggressor; victim ] in
  Alcotest.(check string) "no-partition replay byte-identical"
    (Mt.result_json (Lazy.force shared))
    (Mt.result_json again);
  let again = Mt.run ~partition:Bw.Compute_memory [ aggressor; victim ] in
  Alcotest.(check string) "partitioned replay byte-identical"
    (Mt.result_json (Lazy.force fenced))
    (Mt.result_json again)

let test_arbitration_order () =
  (* two identical native streams, priorities 2:1 — the timeline is the
     weighted round-robin witness, fully decided by the tenant list *)
  let a =
    Tenant.make ~tool:R.No_tool ~priority:2 ~program:"myocyte" "a"
  in
  let b = Tenant.make ~tool:R.No_tool ~program:"myocyte" "b" in
  let r = Mt.run [ a; b ] in
  Alcotest.(check (list string))
    "weighted round-robin interleaving"
    [ "a"; "b"; "a"; "a"; "b"; "a"; "b"; "b" ]
    (List.map fst r.Mt.timeline)

let test_unknown_program_rejected () =
  let t = Tenant.make ~tool:R.No_tool ~program:"no-such-program" "x" in
  Alcotest.(check bool) "invalid_arg" true
    (match Mt.run [ t ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Serve: tenant labels quotas and metrics, not responses ----------- *)

module Serve = Fpx_serve.Server
module SJson = Fpx_obs.Json

let test_serve_tenant_neutral_cache () =
  let t =
    Serve.create
      ~config:
        { Serve.default_config with
          Serve.jobs = 1;
          tenant_quotas = [ ("a", 1) ];
        }
      ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown t)
    (fun () ->
      let submit tenant =
        Serve.handle t
          (SJson.to_string
             (SJson.Obj
                [ ("op", SJson.Str "submit");
                  ("tool", SJson.Str "lint");
                  ("program", SJson.Str "Triad");
                  ("tenant", SJson.Str tenant) ]))
      in
      let ra = submit "a" in
      let rb = submit "b" in
      (* the tenant never enters the cache key or response bytes *)
      Alcotest.(check string) "cross-tenant response byte-identical" ra rb;
      let cstats = Fpx_serve.Cache.stats (Serve.cache t) in
      Alcotest.(check int) "second tenant hit the cache" 1
        cstats.Fpx_serve.Cache.hits;
      (* stats reports the per-tenant quota table *)
      let parsed = SJson.parse (Serve.handle t "{\"op\":\"stats\"}") in
      let tenants =
        Option.get
          (SJson.member "tenants" (Option.get (SJson.member "payload" parsed)))
      in
      Alcotest.(check (option int)) "tenant a admitted once" (Some 1)
        (Option.bind (SJson.member "a" tenants) (SJson.int_field "admitted"));
      (* only the miss consumed quota; the hit bypassed admission *)
      Alcotest.(check bool) "tenant b row absent (cache hit only)" true
        (SJson.member "b" tenants = None);
      let prom = Serve.metrics_text t in
      let has sub s =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "labelled request counter" true
        (has "fpx_serve_tenant_requests_total{tenant=\"a\"} 1" prom);
      Alcotest.(check bool) "labelled cache-hit counter" true
        (has "fpx_serve_tenant_cached_total{tenant=\"b\"} 1" prom))

let suite =
  ( "tenancy",
    [ Alcotest.test_case "meter: idle" `Quick test_meter_idle;
      Alcotest.test_case "meter: neighbour pressure" `Quick
        test_meter_pressure;
      Alcotest.test_case "meter: compute+mem partition" `Quick
        test_meter_partitioned;
      Alcotest.test_case "partition strings" `Quick test_partition_strings;
      Alcotest.test_case "tenant spec parsing" `Quick test_tenant_parse;
      Alcotest.test_case "tool names" `Quick test_tool_of_string;
      Alcotest.test_case "quota admission" `Quick test_quota;
      Alcotest.test_case "quota default override" `Quick
        test_quota_default_override;
      Alcotest.test_case "interference measurable unpartitioned" `Quick
        test_interference_measurable;
      Alcotest.test_case "compute+mem report byte-identical" `Quick
        test_partitioned_report_identical;
      Alcotest.test_case "solo = plain run" `Quick test_solo_matches_plain_run;
      Alcotest.test_case "co-run determinism" `Quick test_determinism;
      Alcotest.test_case "weighted round-robin timeline" `Quick
        test_arbitration_order;
      Alcotest.test_case "unknown program rejected" `Quick
        test_unknown_program_rejected;
      Alcotest.test_case "serve: tenant-neutral cache + labels" `Quick
        test_serve_tenant_neutral_cache ] )
