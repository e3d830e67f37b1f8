(* Differential fuzzing over random expression kernels.

   The expression language, generators, host-side oracles and input
   grids all live in {!Fpx_fuzz.Gen} — one generator and one shrink
   story shared with the fuzz campaigns — so this file holds only the
   harness plumbing and the properties themselves: instrumentation must
   never perturb program results (bit-for-bit), the detector must be
   deterministic, the dedup and aggregation machinery (global table,
   warp-leader) must not change *which* exceptions are found, and — on
   the exactly-rounded opcode subset — the compile→simulate pipeline
   must agree with a direct host-side evaluator using the same Fp32
   primitives. *)

module Ast = Fpx_klang.Ast
module D = Fpx_klang.Dsl
module Gpu = Fpx_gpu
module Det = Gpu_fpx.Detector
module Fp32 = Fpx_num.Fp32
open Fpx_fuzz.Gen

let qcheck_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* Subnormal-free variants for the fast-math SUB-freedom property. *)
let a_in_normal = desub a_in
let b_in_normal = desub b_in

type tool = No_tool | Detector of Det.config | Binfpe | Analyzer

type outcome = {
  bits : int32 array;
  records : (string * int * string * string) list;
      (** (kernel, pc, format, exce) — the unique-record identity *)
  log : string list;
}

let fmt_str = Fpx_sass.Isa.fp_format_to_string
let exce_str = Fpx_tool.Exce.to_string

let run_once ?(launches = 1) ?(mode = Fpx_klang.Mode.precise)
    ?(inputs = (a_in, b_in)) ~tool e =
  let a_in, b_in = inputs in
  let prog = Fpx_klang.Compile.compile ~mode (build_kernel e) in
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = ref None in
  let bin = ref None in
  (match tool with
  | No_tool -> ()
  | Detector config ->
    let d = Det.create ~config dev in
    Fpx_nvbit.Runtime.attach rt (Det.tool d);
    det := Some d
  | Binfpe ->
    let b = Fpx_binfpe.Binfpe.create dev in
    Fpx_nvbit.Runtime.attach rt (Fpx_binfpe.Binfpe.tool b);
    bin := Some b
  | Analyzer ->
    let a = Gpu_fpx.Analyzer.create dev in
    Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Analyzer.tool a));
  let mem = dev.Gpu.Device.memory in
  let a = Gpu.Memory.alloc mem ~bytes:(4 * n_elems) in
  let b = Gpu.Memory.alloc mem ~bytes:(4 * n_elems) in
  let out = Gpu.Memory.alloc_zeroed mem ~bytes:(4 * n_elems) in
  Gpu.Memory.write_f32_array mem ~addr:a a_in;
  Gpu.Memory.write_f32_array mem ~addr:b b_in;
  for _ = 1 to launches do
    Fpx_nvbit.Runtime.launch rt ~grid:2 ~block:32
      ~params:
        [ Gpu.Param.Ptr out; Ptr a; Ptr b; I32 (Int32.of_int n_elems) ]
      prog
  done;
  let records =
    match !det with
    | Some d ->
      List.map
        (fun (f : Det.finding) ->
          ( f.Det.entry.Gpu_fpx.Loc_table.kernel,
            f.Det.entry.Gpu_fpx.Loc_table.pc, fmt_str f.Det.fmt,
            exce_str f.Det.exce ))
        (Det.findings d)
      |> List.sort compare
    | None -> []
  in
  let log = match !det with Some d -> Det.log_lines d | None -> [] in
  { bits = Gpu.Memory.read_i32_array mem ~addr:out ~len:n_elems; records; log }

let default = Det.default_config

(* --- properties ------------------------------------------------------- *)

let prop_detector_preserves_semantics =
  QCheck.Test.make ~count:60 ~name:"detector never perturbs program output"
    arb_full (fun e ->
      let native = run_once ~tool:No_tool e in
      let under = run_once ~tool:(Detector default) e in
      native.bits = under.bits)

let prop_binfpe_preserves_semantics =
  QCheck.Test.make ~count:40 ~name:"binfpe never perturbs program output"
    arb_full (fun e ->
      let native = run_once ~tool:No_tool e in
      let under = run_once ~tool:Binfpe e in
      native.bits = under.bits)

let prop_analyzer_preserves_semantics =
  (* the analyzer instruments far more heavily (before+after capture,
     store tracking) and still must not perturb results *)
  QCheck.Test.make ~count:40 ~name:"analyzer never perturbs program output"
    arb_full (fun e ->
      let native = run_once ~tool:No_tool e in
      let under = run_once ~tool:Analyzer e in
      native.bits = under.bits)

let prop_fastmath_preserves_under_tool =
  (* preservation must hold in both compiler modes: the fast-math code
     (FTZ, contraction, bare MUFU.RCP) runs identically instrumented *)
  QCheck.Test.make ~count:40
    ~name:"detector never perturbs fast-math output" arb_full (fun e ->
      let m = Fpx_klang.Mode.fast_math in
      let native = run_once ~mode:m ~tool:No_tool e in
      let under = run_once ~mode:m ~tool:(Detector default) e in
      native.bits = under.bits)

let prop_fastmath_no_fp32_subnormals =
  (* --use_fast_math flushes every *computed* FP32 result to zero when
     subnormal, so with subnormal-free inputs and constants the detector
     can never report an FP32 SUB record (Table 6's uniform SUB → 0
     column). With subnormal sources the claim is false — FSEL/FMNMX
     pass loaded subnormals through unflushed, and the fuzzer found that
     counterexample before the sources were restricted. *)
  QCheck.Test.make ~count:40
    ~name:"fast-math kills every computed FP32 SUB record"
    arb_full_normal_consts (fun e ->
      let r =
        run_once ~mode:Fpx_klang.Mode.fast_math
          ~inputs:(a_in_normal, b_in_normal) ~tool:(Detector default) e
      in
      List.for_all
        (fun (_, _, fmt, exce) -> not (fmt = "FP32" && exce = "SUB"))
        r.records)

let prop_detector_deterministic =
  QCheck.Test.make ~count:30 ~name:"detector runs are deterministic" arb_full
    (fun e ->
      let r1 = run_once ~tool:(Detector default) e in
      let r2 = run_once ~tool:(Detector default) e in
      r1.bits = r2.bits && r1.records = r2.records && r1.log = r2.log)

let prop_gt_does_not_change_findings =
  QCheck.Test.make ~count:40
    ~name:"global table changes cost, never the unique-record set" arb_full
    (fun e ->
      let with_gt = run_once ~tool:(Detector { default with use_gt = true }) e in
      let without =
        run_once ~tool:(Detector { default with use_gt = false }) e
      in
      with_gt.records = without.records)

let prop_warp_leader_does_not_change_findings =
  QCheck.Test.make ~count:40
    ~name:"warp-leader aggregation finds the same records as per-lane"
    arb_full (fun e ->
      let leader =
        run_once ~tool:(Detector { default with warp_leader = true }) e
      in
      let per_lane =
        run_once ~tool:(Detector { default with warp_leader = false }) e
      in
      leader.records = per_lane.records)

let prop_sampling_identical_launches =
  (* invocation 0 is always instrumented, so k-undersampling over
     identical launches must report exactly the full record set *)
  QCheck.Test.make ~count:25
    ~name:"undersampling loses nothing on temporally identical launches"
    arb_full (fun e ->
      let full = run_once ~launches:8 ~tool:(Detector default) e in
      let sampled =
        run_once ~launches:8
          ~tool:
            (Detector { default with sampling = Gpu_fpx.Sampling.every 4 })
          e
      in
      full.records = sampled.records)

(* --- host-side oracle on the exactly-rounded subset ------------------- *)

let prop_matches_host_oracle =
  QCheck.Test.make ~count:80
    ~name:"compile+simulate agrees bit-for-bit with the host evaluator"
    arb_exact (fun e ->
      let got = (run_once ~tool:No_tool e).bits in
      Array.for_all
        (fun i ->
          let expect =
            eval e ~x:(Fp32.of_float a_in.(i)) ~y:(Fp32.of_float b_in.(i))
          in
          Fp32.equal_bits got.(i) expect)
        (Array.init n_elems Fun.id))

(* Soundness on the checked subset: any NaN/INF bit pattern landing in
   output memory was created by some FP32 compute instruction (inputs
   are all finite), and every FP32 compute creation site is
   instrumented — so the detector must have at least one record. *)
let exceptional_cases_seen = ref 0

let prop_exceptional_output_is_detected =
  QCheck.Test.make ~count:80
    ~name:"NaN/INF reaching memory implies a detector record" arb_exact
    (fun e ->
      let r = run_once ~tool:(Detector default) e in
      let exceptional =
        Array.exists (fun w -> Fp32.is_nan w || Fp32.is_inf w) r.bits
      in
      if exceptional then incr exceptional_cases_seen;
      (not exceptional) || r.records <> [])

(* --- FP64: the same guarantees through the register-pair plumbing ----- *)

let run_once64 ~tool e =
  let prog = Fpx_klang.Compile.compile (build_kernel64 e) in
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = ref None in
  (match tool with
  | No_tool | Binfpe | Analyzer -> ()
  | Detector config ->
    let d = Det.create ~config dev in
    Fpx_nvbit.Runtime.attach rt (Det.tool d);
    det := Some d);
  let mem = dev.Gpu.Device.memory in
  let a = Gpu.Memory.alloc mem ~bytes:(8 * n_elems) in
  let b = Gpu.Memory.alloc mem ~bytes:(8 * n_elems) in
  let out = Gpu.Memory.alloc_zeroed mem ~bytes:(8 * n_elems) in
  Gpu.Memory.write_f64_array mem ~addr:a a64_in;
  Gpu.Memory.write_f64_array mem ~addr:b b64_in;
  Fpx_nvbit.Runtime.launch rt ~grid:2 ~block:32
    ~params:[ Gpu.Param.Ptr out; Ptr a; Ptr b; I32 (Int32.of_int n_elems) ]
    prog;
  let values = Gpu.Memory.read_f64_array mem ~addr:out ~len:n_elems in
  let n_records = match !det with Some d -> Det.total d | None -> 0 in
  (Array.map Int64.bits_of_float values, n_records)

let prop_f64_matches_host_oracle =
  QCheck.Test.make ~count:60
    ~name:"FP64 pair registers agree bit-for-bit with native doubles"
    arb_ex64 (fun e ->
      let got, _ = run_once64 ~tool:No_tool e in
      Array.for_all
        (fun i ->
          Int64.equal got.(i)
            (Int64.bits_of_float (eval64 e ~x:a64_in.(i) ~y:b64_in.(i))))
        (Array.init n_elems Fun.id))

let prop_f64_detector_preserves =
  QCheck.Test.make ~count:40
    ~name:"detector never perturbs FP64 output" arb_ex64 (fun e ->
      let native, _ = run_once64 ~tool:No_tool e in
      let under, _ = run_once64 ~tool:(Detector default) e in
      native = under)

let prop_f64_exceptional_detected =
  QCheck.Test.make ~count:60
    ~name:"FP64 NaN/INF reaching memory implies a detector record" arb_ex64
    (fun e ->
      let bits, n_records = run_once64 ~tool:(Detector default) e in
      let exceptional =
        Array.exists
          (fun w ->
            let f = Int64.float_of_bits w in
            Float.is_nan f || f = Float.infinity || f = Float.neg_infinity)
          bits
      in
      (not exceptional) || n_records > 0)

(* --- division expansion exactness ------------------------------------- *)

let test_division_exactness () =
  (* how close is the compiled FCHK+Newton division to the correctly-
     rounded quotient? Sweep random bit patterns against Fp32.div.
     Mid-range quotients go through the refined fast path and are
     faithful to within 1 ulp (but not exactly rounded, which is why
     Div is excluded from the bit-exact host-oracle property above);
     extreme-exponent denominators take the scaled slow path whose
     single SFU reciprocal is good to ~2^-21, i.e. a few ulp. This
     sweep found two real bugs during development: the residual
     correction turned a correctly-overflowed quotient into NaN, and
     rcp of a near-max denominator flushed to zero giving -0 instead
     of a finite quotient. *)
  let k =
    D.kernel "divk"
      [ ("out", D.ptr Ast.F32); ("a", D.ptr Ast.F32); ("b", D.ptr Ast.F32);
        ("n", D.scalar Ast.I32) ]
      [ D.let_ "i" Ast.I32 D.tid;
        D.if_
          (D.( <: ) (D.v "i") (D.v "n"))
          [ D.store "out" (D.v "i")
              (D.( /: ) (D.load "a" (D.v "i")) (D.load "b" (D.v "i"))) ]
          [] ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let n = 4096 in
  let rng = Random.State.make [| 99 |] in
  let rand_bits () =
    (* 30 random bits + 2 more for the sign/exponent top *)
    Int32.logor
      (Int32.of_int (Random.State.bits rng))
      (Int32.shift_left (Int32.of_int (Random.State.int rng 4)) 30)
  in
  let a_bits = Array.init n (fun _ -> rand_bits ()) in
  let b_bits = Array.init n (fun _ -> rand_bits ()) in
  let dev = Gpu.Device.create () in
  let mem = dev.Gpu.Device.memory in
  let a = Gpu.Memory.alloc mem ~bytes:(4 * n) in
  let b = Gpu.Memory.alloc mem ~bytes:(4 * n) in
  let out = Gpu.Memory.alloc_zeroed mem ~bytes:(4 * n) in
  Array.iteri (fun i v -> Gpu.Memory.store_i32 mem ~addr:(a + (4 * i)) v) a_bits;
  Array.iteri (fun i v -> Gpu.Memory.store_i32 mem ~addr:(b + (4 * i)) v) b_bits;
  ignore
    (Gpu.Exec.run ~device:dev ~grid:(n / 32) ~block:32
       ~params:[ Gpu.Param.Ptr out; Ptr a; Ptr b; I32 (Int32.of_int n) ]
       prog);
  let got = Gpu.Memory.read_i32_array mem ~addr:out ~len:n in
  (* monotone bits→ordered-int mapping, so ulp distance is integer
     distance; NaNs are compared as a class *)
  let ordered b =
    let b = Int32.to_int b land 0xffffffff in
    if b land 0x80000000 <> 0 then -(b land 0x7fffffff) else b
  in
  let max_ulp = ref 0 and inexact = ref 0 in
  for i = 0 to n - 1 do
    let expect = Fp32.div a_bits.(i) b_bits.(i) in
    if Fp32.is_nan got.(i) || Fp32.is_nan expect then begin
      if not (Fp32.is_nan got.(i) && Fp32.is_nan expect) then
        Alcotest.failf "NaN class disagrees: %s / %s -> got %s, want %s"
          (Fp32.to_string a_bits.(i)) (Fp32.to_string b_bits.(i))
          (Fp32.to_string got.(i)) (Fp32.to_string expect)
    end
    else begin
      let d = abs (ordered got.(i) - ordered expect) in
      if d > 0 then incr inexact;
      if d > !max_ulp then max_ulp := d
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "within 8 ulp on %d random quotients (max %d)" n !max_ulp)
    true (!max_ulp <= 8);
  (* and honestly not exactly rounded — a faithful expansion, like the
     hardware sequence it models *)
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d inexact (faithful, not exact)" !inexact n)
    true
    (!inexact > 0)

(* --- analyzer flow chains on random kernels --------------------------- *)

let prop_flow_chains_well_formed =
  (* structural invariants of Flow.chains over arbitrary report
     streams: chains partition the reports of exceptional kernels,
     hops stay within the origin's kernel, a Killed fate ends in a
     Disappearance, and rendering never raises *)
  QCheck.Test.make ~count:40 ~name:"flow chains are well-formed" arb_full
    (fun e ->
      let dev = Gpu.Device.create () in
      let rt = Fpx_nvbit.Runtime.create dev in
      let ana = Gpu_fpx.Analyzer.create dev in
      Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Analyzer.tool ana);
      let prog = Fpx_klang.Compile.compile (build_kernel e) in
      let mem = dev.Gpu.Device.memory in
      let a = Gpu.Memory.alloc mem ~bytes:(4 * n_elems) in
      let b = Gpu.Memory.alloc mem ~bytes:(4 * n_elems) in
      let out = Gpu.Memory.alloc_zeroed mem ~bytes:(4 * n_elems) in
      Gpu.Memory.write_f32_array mem ~addr:a a_in;
      Gpu.Memory.write_f32_array mem ~addr:b b_in;
      Fpx_nvbit.Runtime.launch rt ~grid:2 ~block:32
        ~params:
          [ Gpu.Param.Ptr out; Ptr a; Ptr b; I32 (Int32.of_int n_elems) ]
        prog;
      let reports = Gpu_fpx.Analyzer.reports ana in
      let chains = Gpu_fpx.Flow.chains reports in
      List.for_all
        (fun (c : Gpu_fpx.Flow.chain) ->
          let same_kernel =
            List.for_all
              (fun (h : Gpu_fpx.Analyzer.report) ->
                h.Gpu_fpx.Analyzer.kernel
                = c.Gpu_fpx.Flow.origin.Gpu_fpx.Analyzer.kernel)
              c.Gpu_fpx.Flow.hops
          in
          let last =
            match List.rev c.Gpu_fpx.Flow.hops with
            | h :: _ -> h
            | [] -> c.Gpu_fpx.Flow.origin
          in
          let dest_clean (r : Gpu_fpx.Analyzer.report) =
            match r.Gpu_fpx.Analyzer.after with
            | [] -> true
            | d :: _ -> not (Fpx_num.Kind.is_exceptional d)
          in
          let fate_consistent =
            match c.Gpu_fpx.Flow.fate with
            | Gpu_fpx.Flow.Killed ->
              last.Gpu_fpx.Analyzer.state = Gpu_fpx.Analyzer.Disappearance
              || dest_clean last
            | Gpu_fpx.Flow.Guarded ->
              last.Gpu_fpx.Analyzer.state = Gpu_fpx.Analyzer.Comparison
              && dest_clean last
            | Gpu_fpx.Flow.Surviving -> not (dest_clean last)
          in
          let renders = String.length (Gpu_fpx.Flow.render c) > 0 in
          same_kernel && fate_consistent && renders)
        chains)

let test_f64_division_sweep () =
  (* full-range FP64 division against native doubles: class-correct
     everywhere (NaN/INF/zero), and within a small relative error for
     finite results — including subnormal and near-max denominators,
     where the seed reciprocal would naively over-/underflow *)
  let k =
    D.kernel "divk64"
      [ ("out", D.ptr Ast.F64); ("a", D.ptr Ast.F64); ("b", D.ptr Ast.F64);
        ("n", D.scalar Ast.I32) ]
      [ D.let_ "i" Ast.I32 D.tid;
        D.if_
          (D.( <: ) (D.v "i") (D.v "n"))
          [ D.store "out" (D.v "i")
              (D.( /: ) (D.load "a" (D.v "i")) (D.load "b" (D.v "i"))) ]
          [] ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let n = 2048 in
  let rng = Random.State.make [| 0xd1f |] in
  let rand_f64 () =
    Int64.logor
      (Int64.of_int (Random.State.bits rng))
      (Int64.logor
         (Int64.shift_left (Int64.of_int (Random.State.bits rng)) 30)
         (Int64.shift_left (Int64.of_int (Random.State.int rng 16)) 60))
    |> Int64.float_of_bits
  in
  let a_in = Array.init n (fun _ -> rand_f64 ()) in
  let b_in = Array.init n (fun _ -> rand_f64 ()) in
  let dev = Gpu.Device.create () in
  let mem = dev.Gpu.Device.memory in
  let a = Gpu.Memory.alloc mem ~bytes:(8 * n) in
  let b = Gpu.Memory.alloc mem ~bytes:(8 * n) in
  let out = Gpu.Memory.alloc_zeroed mem ~bytes:(8 * n) in
  Gpu.Memory.write_f64_array mem ~addr:a a_in;
  Gpu.Memory.write_f64_array mem ~addr:b b_in;
  ignore
    (Gpu.Exec.run ~device:dev ~grid:(n / 32) ~block:32
       ~params:[ Gpu.Param.Ptr out; Ptr a; Ptr b; I32 (Int32.of_int n) ]
       prog);
  let got = Gpu.Memory.read_f64_array mem ~addr:out ~len:n in
  for i = 0 to n - 1 do
    let expect = a_in.(i) /. b_in.(i) in
    let g = got.(i) in
    if Float.is_nan expect then (
      if not (Float.is_nan g) then
        Alcotest.failf "NaN class: %h / %h -> %h" a_in.(i) b_in.(i) g)
    else if Float.abs expect = Float.infinity then (
      if g <> expect then
        Alcotest.failf "INF class: %h / %h -> %h, want %h" a_in.(i) b_in.(i)
          g expect)
    else if expect = 0.0 then (
      if Float.abs g > 1e-300 then
        Alcotest.failf "zero class: %h / %h -> %h" a_in.(i) b_in.(i) g)
    else begin
      let rel = Float.abs ((g -. expect) /. expect) in
      (* subnormal results double-round; allow a proportionally larger
         error there *)
      let bound =
        if Float.abs expect < 2.3e-308 then
          1e-10 +. (2.3e-308 /. Float.abs expect *. 1e-15)
        else 1e-10
      in
      if rel > bound then
        Alcotest.failf "off: %h / %h -> %h, want %h (rel %g)" a_in.(i)
          b_in.(i) g expect rel
    end
  done

(* Guard against vacuity: the soundness property above only means
   something if the generator actually produced programs whose output
   contains NaN/INF. Runs after the qcheck cases in suite order. *)
let test_non_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "%d exceptional programs generated"
       !exceptional_cases_seen)
    true
    (!exceptional_cases_seen >= 5)

let suite =
  ( "fuzz",
    [ qcheck_case prop_detector_preserves_semantics;
      qcheck_case prop_binfpe_preserves_semantics;
      qcheck_case prop_analyzer_preserves_semantics;
      qcheck_case prop_fastmath_preserves_under_tool;
      qcheck_case prop_fastmath_no_fp32_subnormals;
      qcheck_case prop_detector_deterministic;
      qcheck_case prop_gt_does_not_change_findings;
      qcheck_case prop_warp_leader_does_not_change_findings;
      qcheck_case prop_sampling_identical_launches;
      qcheck_case prop_matches_host_oracle;
      qcheck_case prop_exceptional_output_is_detected;
      qcheck_case prop_f64_matches_host_oracle;
      qcheck_case prop_f64_detector_preserves;
      qcheck_case prop_f64_exceptional_detected;
      Alcotest.test_case "division expansion exactness" `Quick
        test_division_exactness;
      Alcotest.test_case "FP64 division full-range sweep" `Quick
        test_f64_division_sweep;
      qcheck_case prop_flow_chains_well_formed;
      Alcotest.test_case "fuzzing is non-vacuous" `Quick test_non_vacuous ] )
