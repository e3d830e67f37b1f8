(* Architectural bit-flip campaign engine: fault-site plumbing, the
   SASS mutator, outcome classification, and the crash-safe store. *)

module Fault = Fpx_fault.Fault
module Prng = Fault.Prng
module C = Fpx_campaign.Campaign
module Store = Fpx_campaign.Store
module Mutate = Fpx_sass.Mutate
module Program = Fpx_sass.Program
module R = Fpx_harness.Runner

let () = Fpx_harness.Toolreg.ensure ()

(* --- Prng.pick on an empty array (the campaign's drawing sites) ------ *)

let test_pick_empty_raises () =
  let p = Prng.stream ~seed:1 0 in
  Alcotest.check_raises "names the drawing site"
    (Invalid_argument "Fault.Prng.pick(campaign.programs): empty array")
    (fun () -> ignore (Prng.pick ~what:"campaign.programs" p ([||] : int array)));
  Alcotest.check_raises "default site name"
    (Invalid_argument "Fault.Prng.pick(array): empty array")
    (fun () -> ignore (Prng.pick p ([||] : int array)));
  Alcotest.(check int) "non-empty still draws" 7
    (Prng.pick ~what:"one" p [| 7 |])

(* --- the SASS instruction mutator ------------------------------------ *)

let gemm_prog () =
  let w = Fpx_workloads.Catalog.find "GRAMSCHM" in
  Fpx_klang.Compile.compile ~mode:Fpx_klang.Mode.precise
    (List.hd w.Fpx_workloads.Workload.kernels)

let test_mutate_candidates_never_empty () =
  let prog = gemm_prog () in
  Array.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "pc %d has candidates" i.Fpx_sass.Instr.pc)
        true
        (Mutate.candidates i <> []))
    prog.Program.instrs

let test_mutate_deterministic_and_length_preserving () =
  let prog = gemm_prog () in
  let n = Program.length prog in
  for sel = 0 to 40 do
    let pc = sel mod n in
    match Mutate.instr_flip prog ~pc ~sel, Mutate.instr_flip prog ~pc ~sel with
    | Ok a, Ok b ->
      Alcotest.(check string)
        (Printf.sprintf "pc %d sel %d deterministic" pc sel)
        (Program.disassemble a) (Program.disassemble b);
      Alcotest.(check int)
        (Printf.sprintf "pc %d sel %d length preserved" pc sel)
        n (Program.length a)
    | Error a, Error b ->
      Alcotest.(check string) "same error" a b
    | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.fail "instr_flip nondeterministic"
  done

let test_mutate_changes_program () =
  let prog = gemm_prog () in
  let changed = ref 0 in
  for sel = 0 to 20 do
    match Mutate.instr_flip prog ~pc:(sel mod Program.length prog) ~sel with
    | Ok m ->
      if Program.disassemble m <> Program.disassemble prog then incr changed
    | Error _ -> ()
  done;
  Alcotest.(check bool) "mutations actually mutate" true (!changed > 15)

(* --- targeted architectural faults at the Fault layer ---------------- *)

let test_arch_tick_fires_exactly_once () =
  let spec =
    Fault.spec ~sites:[] ~rate:0.0
      ~arch:(Fault.Reg_flip { at_dyn = 2; lane = 3; reg = 1; bit = 7 })
      ~seed:9 ()
  in
  match Fault.active (Fault.of_spec spec) with
  | None -> Alcotest.fail "plan inactive"
  | Some a ->
    Alcotest.(check bool) "tick 0 silent" true (Fault.arch_tick a = None);
    Alcotest.(check bool) "tick 1 silent" true (Fault.arch_tick a = None);
    (match Fault.arch_tick a with
    | Some (Fault.Reg_flip { reg = 1; bit = 7; _ }) -> ()
    | _ -> Alcotest.fail "tick 2 should deliver the flip");
    Alcotest.(check bool) "fired" true (Fault.arch_fired a);
    Alcotest.(check bool) "tick 3 silent" true (Fault.arch_tick a = None);
    Alcotest.(check int) "noted once" 1
      (Fault.injected a Fault.Reg_bit_flip)

let test_arch_instr_flip_keyed_by_kernel () =
  let spec =
    Fault.spec ~sites:[] ~rate:0.0
      ~arch:(Fault.Instr_flip { kernel = "k1"; pc = 4; sel = 11 })
      ~seed:9 ()
  in
  match Fault.active (Fault.of_spec spec) with
  | None -> Alcotest.fail "plan inactive"
  | Some a ->
    Alcotest.(check bool) "other kernel untouched" true
      (Fault.arch_instr_flip a ~kernel:"other" = None);
    Alcotest.(check bool) "target kernel mutated" true
      (Fault.arch_instr_flip a ~kernel:"k1" = Some (4, 11));
    Alcotest.(check bool) "idempotent across launches" true
      (Fault.arch_instr_flip a ~kernel:"k1" = Some (4, 11));
    Alcotest.(check int) "noted once" 1
      (Fault.injected a Fault.Instr_bit_flip)

(* --- combined channel + watchdog degradation (one plan) -------------- *)

let test_combined_fault_degradation () =
  let fault =
    Fault.spec
      ~sites:[ Fault.Channel_stall; Fault.Drain_fail; Fault.Watchdog_exhaust ]
      ~rate:0.6 ~seed:3 ()
  in
  (* The point: three degradation mechanisms in one plan must yield a
     classified partial measurement, never an unhandled crash. *)
  let m =
    R.run ~fault
      ~tool:(R.Detector Gpu_fpx.Detector.default_config)
      (Fpx_workloads.Catalog.find "GRAMSCHM")
  in
  (match m.R.status with
  | R.Degraded reasons ->
    Alcotest.(check bool) "degradation reasons listed" true (reasons <> [])
  | R.Hung -> ()
  | R.Faulted msg ->
    Alcotest.(check bool) "watchdog-class fault" true
      (String.length msg >= 9 && String.sub msg 0 9 = "watchdog:")
  | R.Completed -> Alcotest.fail "60% triple-fault plan completed cleanly");
  (* partial report still renders *)
  Alcotest.(check bool) "report renders" true
    (String.length (R.to_json m) > 0)

(* --- result lines and the store -------------------------------------- *)

let test_result_line_roundtrip () =
  let r =
    {
      C.id = 41;
      program = "GEMM";
      site = "instr-bit-flip";
      target = "instr k\"x\" pc 3 sel 9";
      outcome = C.Decode_fail;
      detected = false;
      detail = "decode-fail: kernel \"gemm\"\n\tline two";
    }
  in
  (* the store line format is pinned byte for byte; that every result
     reads back is a codec law in test_serve *)
  Alcotest.(check string) "line bytes"
    {|{"id":41,"program":"GEMM","site":"instr-bit-flip","target":"instr k\"x\" pc 3 sel 9","outcome":"decode-fail","detected":false,"detail":"decode-fail: kernel \"gemm\"\n\tline two"}|}
    (C.result_to_line r);
  Alcotest.(check bool) "torn line rejected" true
    (C.result_of_line "{\"id\":3,\"program\":\"GE" = None)

let tmpdir () = Filename.temp_file "campaign" ".d" |> fun f ->
  Sys.remove f;
  f

let test_store_append_load_reset () =
  let root = tmpdir () in
  let key = Store.key_of ~seed:1 ~total:5 ~budget_factor:16 ~programs:[ "a" ] in
  Alcotest.(check (list string)) "empty before create" [] (Store.load ~root ~key);
  Store.append ~root ~key [ "{\"id\":0}"; "{\"id\":1}" ];
  Store.append ~root ~key [ "{\"id\":2}" ];
  Alcotest.(check (list string)) "appends accumulate"
    [ "{\"id\":0}"; "{\"id\":1}"; "{\"id\":2}" ]
    (Store.load ~root ~key);
  (* simulate a torn trailing write *)
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 (Store.path ~root ~key)
  in
  output_string oc "{\"id\":3,\"trunc";
  close_out oc;
  Alcotest.(check (list string)) "torn tail dropped"
    [ "{\"id\":0}"; "{\"id\":1}"; "{\"id\":2}" ]
    (Store.load ~root ~key);
  Store.reset ~root ~key;
  Alcotest.(check (list string)) "reset clears" [] (Store.load ~root ~key);
  Alcotest.(check bool) "key independent of nothing else" true
    (String.length key = 32)

(* A store written before the campaign shared the JSON codec (seed 11,
   total 24, default programs: ids 0-8 and 22, the last with control
   characters, quotes and UTF-8 in its detail). It must still load, and
   every line must re-render to its own bytes except that \r \b \f now
   take their short escapes. scripts/tier1.sh resumes from a copy. *)
let old_store_root =
  let local = Filename.concat "golden" "campaign-store" in
  if Sys.file_exists local then local else Filename.concat "test" local

let test_old_store_loads () =
  let cfg = C.config ~store:old_store_root ~seed:11 ~total:24 () in
  let s = C.load cfg in
  Alcotest.(check (list int)) "every record loads"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 22 ]
    (List.map (fun r -> r.C.id) s.C.results);
  let r22 = List.find (fun r -> r.C.id = 22) s.C.results in
  Alcotest.(check bool) "hang record" true (r22.C.outcome = C.Hang);
  Alcotest.(check string) "escaped detail decodes"
    "watchdog: kernel sgemmNN exceeded 126800 instrs\r\n\tsp\"q\\ \b\012\001 caf\195\169"
    r22.C.detail;
  let old_lines = Store.load ~root:old_store_root ~key:(C.key cfg) in
  let rerender l =
    match C.result_of_line l with
    | Some r -> C.result_to_line r
    | None -> Alcotest.fail ("unreadable line: " ^ l)
  in
  List.iteri
    (fun i l ->
      let expected =
        if i < 9 then l
        else
          {|{"id":22,"program":"GEMM","site":"instr-bit-flip","target":"instr sgemmNN pc 20 sel 378633158","outcome":"hang","detected":false,"detail":"watchdog: kernel sgemmNN exceeded 126800 instrs\r\n\tsp\"q\\ \b\f\u0001 caf|}
          ^ "\195\169\"}"
      in
      Alcotest.(check string) (Printf.sprintf "line %d re-renders" i) expected
        (rerender l))
    old_lines

(* --- a tiny end-to-end campaign -------------------------------------- *)

let small_cfg ?store ?halt_after ?(jobs = 1) () =
  C.config ~jobs ~programs:[ "GRAMSCHM"; "Triad" ] ?store ?halt_after
    ~resume:(halt_after = None && store <> None)
    ~minimize:false ~seed:5 ~total:6 ()

let test_campaign_resume_and_jobs_invariance () =
  (* straight run, sequential, no store *)
  let s1 = C.run (C.config ~jobs:1 ~programs:[ "GRAMSCHM"; "Triad" ] ~seed:5 ~total:6 ()) in
  Alcotest.(check int) "all classified" 6 s1.C.completed;
  (* parallel *)
  let s2 = C.run (C.config ~jobs:2 ~programs:[ "GRAMSCHM"; "Triad" ] ~seed:5 ~total:6 ()) in
  Alcotest.(check string) "jobs-invariant summary" (C.summary_json s1)
    (C.summary_json s2);
  (* halted then resumed through a store *)
  let root = tmpdir () in
  let halted =
    C.run
      (C.config ~jobs:2 ~programs:[ "GRAMSCHM"; "Triad" ] ~store:root
         ~halt_after:2 ~seed:5 ~total:6 ())
  in
  Alcotest.(check bool) "halted early" true halted.C.halted;
  Alcotest.(check int) "partial store" 2 halted.C.completed;
  let resumed =
    C.run
      (C.config ~jobs:1 ~programs:[ "GRAMSCHM"; "Triad" ] ~store:root
         ~resume:true ~seed:5 ~total:6 ())
  in
  Alcotest.(check string) "kill+resume byte-identical" (C.summary_json s1)
    (C.summary_json resumed);
  (* every injection lands in exactly one outcome class *)
  Alcotest.(check int) "outcome classes partition the plan" 6
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (C.by_outcome resumed));
  (* a second resume runs nothing and reports the same *)
  let again = C.load (small_cfg ~store:root ()) in
  Alcotest.(check string) "load-only report identical" (C.summary_json s1)
    (C.summary_json again)

let test_rerun_matches_plan () =
  let cfg = C.config ~programs:[ "GRAMSCHM" ] ~seed:5 ~total:4 () in
  let s = C.run cfg in
  let r0 = C.rerun cfg ~id:2 in
  let from_run = List.nth s.C.results 2 in
  Alcotest.(check bool) "rerun reproduces the campaign record" true
    (r0 = from_run);
  Alcotest.check_raises "id outside plan"
    (Invalid_argument "Campaign.rerun: id 9 outside plan 0..3") (fun () ->
      ignore (C.rerun cfg ~id:9))

let suite =
  ( "campaign",
    [ Alcotest.test_case "Prng.pick empty raises" `Quick
        test_pick_empty_raises;
      Alcotest.test_case "mutate: candidates never empty" `Quick
        test_mutate_candidates_never_empty;
      Alcotest.test_case "mutate: deterministic, length-preserving" `Quick
        test_mutate_deterministic_and_length_preserving;
      Alcotest.test_case "mutate: changes the program" `Quick
        test_mutate_changes_program;
      Alcotest.test_case "arch: reg flip fires exactly once" `Quick
        test_arch_tick_fires_exactly_once;
      Alcotest.test_case "arch: instr flip keyed by kernel" `Quick
        test_arch_instr_flip_keyed_by_kernel;
      Alcotest.test_case "combined stall+drain+watchdog degrades, no crash"
        `Quick test_combined_fault_degradation;
      Alcotest.test_case "result line round-trip" `Quick
        test_result_line_roundtrip;
      Alcotest.test_case "store: append/load/torn-tail/reset" `Quick
        test_store_append_load_reset;
      Alcotest.test_case "store: pre-codec store still loads" `Quick
        test_old_store_loads;
      Alcotest.test_case "campaign: resume + jobs invariance" `Quick
        test_campaign_resume_and_jobs_invariance;
      Alcotest.test_case "campaign: rerun matches plan" `Quick
        test_rerun_matches_plan ] )
