(* Catalog-level tests: Table 3 structure, per-program Table 4
   signatures, Table 6 fast-math deltas, and the §5 repairs. *)

module W = Fpx_workloads.Workload
module Catalog = Fpx_workloads.Catalog
module R = Fpx_harness.Runner
module Isa = Fpx_sass.Isa
module E = Fpx_tool.Exce

let detector = R.Detector Gpu_fpx.Detector.default_config

let test_catalog_size () =
  Alcotest.(check int) "151 evaluated programs" 151
    (List.length Catalog.evaluated)

let test_suite_sizes () =
  let expect =
    [ (W.Rodinia, 20); (W.Shoc, 13); (W.Parboil, 10); (W.Gpgpu_sim, 6);
      (W.Ecp_proxy, 7); (W.Polybench, 20); (W.Hpc_benchmarks, 1);
      (W.Cuda_samples, 71); (W.Ml_open_issues, 3) ]
  in
  List.iter
    (fun (suite, n) ->
      Alcotest.(check int) (W.suite_to_string suite) n
        (List.length (Catalog.by_suite suite)))
    expect

let test_find () =
  Alcotest.(check string) "find myocyte" "myocyte" (Catalog.find "myocyte").W.name;
  Alcotest.(check bool) "unknown raises" true
    (try ignore (Catalog.find "no-such-program"); false
     with Not_found -> true)

(* every program runs to completion uninstrumented *)
let test_all_programs_run () =
  List.iter
    (fun (w : W.t) ->
      let m = R.run ~tool:R.No_tool w in
      Alcotest.(check bool) (w.W.name ^ " executes") true (m.R.dyn_instrs > 0))
    Catalog.evaluated

(* Table 4 signatures for the headline programs (exact cell values) *)
let signature name =
  let m = R.run ~tool:detector (Catalog.find name) in
  List.map
    (fun fmt -> List.map (fun e -> R.count m ~fmt ~exce:e) E.all)
    [ Isa.FP64; Isa.FP32 ]

let check_sig name expect =
  Alcotest.(check (list (list int))) name expect (signature name)

let test_signature_gramschm () =
  check_sig "GRAMSCHM" [ [ 0; 0; 0; 0 ]; [ 7; 1; 0; 1 ] ]

let test_signature_lu () = check_sig "LU" [ [ 0; 0; 0; 0 ]; [ 3; 0; 0; 1 ] ]

let test_signature_cfd () = check_sig "cfd" [ [ 0; 0; 0; 0 ]; [ 0; 0; 13; 0 ] ]

let test_signature_s3d () = check_sig "S3D" [ [ 0; 0; 0; 0 ]; [ 0; 7; 129; 0 ] ]

let test_signature_stencil () =
  check_sig "stencil" [ [ 0; 0; 0; 0 ]; [ 0; 0; 2; 0 ] ]

let test_signature_wp () = check_sig "wp" [ [ 0; 0; 0; 0 ]; [ 0; 0; 47; 0 ] ]

let test_signature_raytracing () =
  check_sig "rayTracing" [ [ 0; 0; 0; 0 ]; [ 0; 0; 10; 0 ] ]

let test_signature_laghos () =
  check_sig "Laghos" [ [ 1; 1; 1; 0 ]; [ 1; 0; 0; 0 ] ]

let test_signature_remhos () =
  check_sig "Remhos" [ [ 0; 0; 1; 0 ]; [ 0; 0; 0; 0 ] ]

let test_signature_sw4lite () =
  check_sig "Sw4lite (64)" [ [ 1; 1; 1; 0 ]; [ 0; 0; 0; 0 ] ];
  check_sig "Sw4lite (32)" [ [ 0; 1; 0; 0 ]; [ 1; 0; 5; 0 ] ]

let test_signature_hpcg () =
  check_sig "HPCG" [ [ 1; 0; 0; 1 ]; [ 0; 0; 0; 0 ] ]

let test_signature_interval () =
  check_sig "interval" [ [ 1; 1; 0; 0 ]; [ 0; 0; 0; 0 ] ]

let test_signature_cusolver () =
  check_sig "cuSolverDn_LinearSolver" [ [ 0; 0; 2; 0 ]; [ 0; 0; 0; 0 ] ];
  check_sig "cuSolverRf" [ [ 0; 0; 1; 0 ]; [ 0; 0; 0; 0 ] ]

let test_signature_samples_sub1 () =
  check_sig "BlackScholes" [ [ 0; 0; 0; 0 ]; [ 0; 0; 1; 0 ] ];
  check_sig "FDTD3d" [ [ 0; 0; 0; 0 ]; [ 0; 0; 1; 0 ] ];
  check_sig "binomialOptions" [ [ 0; 0; 0; 0 ]; [ 0; 0; 1; 0 ] ]

let test_signature_cgprecond () =
  check_sig "conjugateGradientPrecond" [ [ 0; 0; 0; 0 ]; [ 0; 0; 7; 0 ] ]

let test_signature_cumf () =
  let m = R.run ~tool:detector (Catalog.find "CuMF-Movielens") in
  Alcotest.(check int) "DIV0 x2" 2 (R.count m ~fmt:Isa.FP32 ~exce:E.Div0);
  Alcotest.(check bool) "many NaN sites" true
    (R.count m ~fmt:Isa.FP32 ~exce:E.Nan >= 25)

let test_signature_myocyte_shape () =
  let m = R.run ~tool:detector (Catalog.find "myocyte") in
  let c fmt e = R.count m ~fmt ~exce:e in
  Alcotest.(check int) "FP64 DIV0" 3 (c Isa.FP64 E.Div0);
  Alcotest.(check int) "FP64 SUB" 2 (c Isa.FP64 E.Sub);
  Alcotest.(check int) "FP32 SUB" 8 (c Isa.FP32 E.Sub);
  Alcotest.(check int) "FP32 DIV0" 0 (c Isa.FP32 E.Div0);
  Alcotest.(check bool) "FP64 NaN ~57" true (abs (c Isa.FP64 E.Nan - 57) <= 8);
  Alcotest.(check bool) "FP64 INF ~63" true (abs (c Isa.FP64 E.Inf - 63) <= 8);
  Alcotest.(check bool) "FP32 NaN ~92" true (abs (c Isa.FP32 E.Nan - 92) <= 15);
  Alcotest.(check bool) "FP32 INF ~76" true (abs (c Isa.FP32 E.Inf - 76) <= 15)

(* Table 6: fast-math deltas *)
let fm_signature name =
  let m = R.run ~mode:Fpx_klang.Mode.fast_math ~tool:detector (Catalog.find name) in
  List.map
    (fun fmt -> List.map (fun e -> R.count m ~fmt ~exce:e) E.all)
    [ Isa.FP64; Isa.FP32 ]

let test_fastmath_gramschm () =
  Alcotest.(check (list (list int)))
    "GRAMSCHM fast-math: NaN 7->5, INF 1->0"
    [ [ 0; 0; 0; 0 ]; [ 5; 0; 0; 1 ] ]
    (fm_signature "GRAMSCHM")

let test_fastmath_subnormals_vanish () =
  (* item 1 of the NVIDIA doc: FTZ kills every FP32 subnormal *)
  List.iter
    (fun name ->
      let s = fm_signature name in
      let fp32_sub = List.nth (List.nth s 1) 2 in
      Alcotest.(check int) (name ^ " SUB -> 0") 0 fp32_sub)
    [ "cfd"; "S3D"; "stencil"; "wp"; "rayTracing" ]

let test_fastmath_myocyte_div0 () =
  (* the famous effect: subnormal gates flushed to zero raise DIV0 *)
  let s = fm_signature "myocyte" in
  let fp32 = List.nth s 1 in
  Alcotest.(check int) "FP32 DIV0 appears" 6 (List.nth fp32 3);
  Alcotest.(check int) "FP32 SUB vanishes" 0 (List.nth fp32 2)

(* §5 repairs *)
let severe (m : R.measurement) =
  List.fold_left
    (fun a (_, e, n) ->
      match e with E.Nan | E.Inf | E.Div0 -> a + n | E.Sub -> a)
    0 m.R.counts

let test_repairs_clear_severe () =
  List.iter
    (fun name ->
      let w = Catalog.find name in
      let before = R.run ~tool:detector w in
      match R.run_repair ~tool:detector w with
      | None -> Alcotest.fail (name ^ " should have a repair")
      | Some after ->
        Alcotest.(check bool)
          (name ^ " repair removes severe exceptions")
          true
          (severe after < severe before))
    [ "GRAMSCHM"; "LU"; "CuMF-Movielens"; "SRU-Example"; "cuML-HousePrice" ]

let test_sru_repair_clean () =
  match R.run_repair ~tool:detector (Catalog.find "SRU-Example") with
  | Some m -> Alcotest.(check int) "randn input: nothing" 0 (List.length m.R.counts)
  | None -> Alcotest.fail "missing repair"

let test_meaningful_flags () =
  (* Monte-Carlo style programs are excluded from Table 4 *)
  Alcotest.(check bool) "MonteCarlo excluded" false
    (Catalog.find "MonteCarlo").W.meaningful;
  Alcotest.(check bool) "myocyte included" true
    (Catalog.find "myocyte").W.meaningful

let test_gmres_case_study () =
  let g = Fpx_workloads.Suite_ml.gmres_original in
  let orig = R.run ~tool:detector g in
  Alcotest.(check bool) "original has div0" true
    (R.count orig ~fmt:Isa.FP32 ~exce:E.Div0 >= 1);
  match R.run_repair ~tool:detector g with
  | Some boosted ->
    (* boosting removes neither the structural DIV0 nor its NaN, but the
       custom kernel no longer receives a NaN (checked via analyzer) *)
    Alcotest.(check bool) "boosted still has div0" true
      (R.count boosted ~fmt:Isa.FP32 ~exce:E.Div0 >= 1);
    let a_orig = R.run ~tool:R.Analyzer g in
    let custom_nan reports =
      List.exists
        (fun (r : Gpu_fpx.Analyzer.report) ->
          r.Gpu_fpx.Analyzer.kernel = "gmres_update_kernel"
          && List.exists Fpx_num.Kind.is_exceptional r.Gpu_fpx.Analyzer.after)
        reports
    in
    let a_boost = Option.get (R.run_repair ~tool:R.Analyzer g) in
    Alcotest.(check bool) "original: NaN reaches custom kernel" true
      (custom_nan a_orig.R.analyzer_reports);
    Alcotest.(check bool) "boosted: custom kernel clean" false
      (custom_nan a_boost.R.analyzer_reports)
  | None -> Alcotest.fail "missing boost repair"

(* The strongest Table-4 net: across all 151 programs, exactly the
   paper's 26 exception carriers report exceptions — and nothing else
   (no false positives anywhere in the catalog). *)
let expected_exception_programs =
  [ "cfd"; "myocyte"; "S3D"; "stencil"; "wp"; "rayTracing"; "Laghos";
    "Remhos"; "Sw4lite (64)"; "Sw4lite (32)"; "GRAMSCHM"; "LU"; "HPCG";
    "interval"; "conjugateGradientPrecond"; "cuSolverDn_LinearSolver";
    "cuSolverRf"; "cuSolverSp_LinearSolver"; "cuSolverSp_LowlevelCholesky";
    "cuSolverSp_LowlevelQR"; "BlackScholes"; "FDTD3d"; "binomialOptions";
    "CuMF-Movielens"; "SRU-Example"; "cuML-HousePrice" ]

let test_exactly_26_programs () =
  let with_exceptions =
    List.filter_map
      (fun (w : W.t) ->
        if not w.W.meaningful then None
        else
          let m = R.run ~tool:detector w in
          if m.R.total_exceptions > 0 then Some w.W.name else None)
      Catalog.evaluated
  in
  Alcotest.(check int) "26 programs" 26 (List.length with_exceptions);
  Alcotest.(check (slist string compare)) "exact program set"
    expected_exception_programs with_exceptions

let suite =
  ( "workloads",
    [ Alcotest.test_case "catalog has 151 programs" `Quick test_catalog_size;
      Alcotest.test_case "suite sizes (Table 3)" `Quick test_suite_sizes;
      Alcotest.test_case "find" `Quick test_find;
      Alcotest.test_case "all 151 programs execute" `Slow test_all_programs_run;
      Alcotest.test_case "Table 4: GRAMSCHM" `Quick test_signature_gramschm;
      Alcotest.test_case "Table 4: LU" `Quick test_signature_lu;
      Alcotest.test_case "Table 4: cfd" `Quick test_signature_cfd;
      Alcotest.test_case "Table 4: S3D" `Quick test_signature_s3d;
      Alcotest.test_case "Table 4: stencil" `Quick test_signature_stencil;
      Alcotest.test_case "Table 4: wp" `Quick test_signature_wp;
      Alcotest.test_case "Table 4: rayTracing" `Quick test_signature_raytracing;
      Alcotest.test_case "Table 4: Laghos" `Quick test_signature_laghos;
      Alcotest.test_case "Table 4: Remhos" `Quick test_signature_remhos;
      Alcotest.test_case "Table 4: Sw4lite both builds" `Quick
        test_signature_sw4lite;
      Alcotest.test_case "Table 4: HPCG" `Quick test_signature_hpcg;
      Alcotest.test_case "Table 4: interval" `Quick test_signature_interval;
      Alcotest.test_case "Table 4: cuSolver" `Quick test_signature_cusolver;
      Alcotest.test_case "Table 4: 1-subnormal samples" `Quick
        test_signature_samples_sub1;
      Alcotest.test_case "Table 4: conjugateGradientPrecond" `Quick
        test_signature_cgprecond;
      Alcotest.test_case "Table 4: CuMF" `Quick test_signature_cumf;
      Alcotest.test_case "Table 4: myocyte shape" `Quick
        test_signature_myocyte_shape;
      Alcotest.test_case "Table 6: GRAMSCHM" `Quick test_fastmath_gramschm;
      Alcotest.test_case "Table 6: subnormals vanish" `Quick
        test_fastmath_subnormals_vanish;
      Alcotest.test_case "Table 6: myocyte DIV0" `Quick
        test_fastmath_myocyte_div0;
      Alcotest.test_case "repairs clear severe exceptions" `Quick
        test_repairs_clear_severe;
      Alcotest.test_case "SRU repair fully clean" `Quick test_sru_repair_clean;
      Alcotest.test_case "meaningful flags" `Quick test_meaningful_flags;
      Alcotest.test_case "GMRES case study (§5.2)" `Quick
        test_gmres_case_study;
      Alcotest.test_case "exactly the paper's 26 programs" `Slow
        test_exactly_26_programs ] )
