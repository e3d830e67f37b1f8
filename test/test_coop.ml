(* Block-cooperation substrate: shared memory, __syncthreads barriers
   across warps, atomics, and the workload kernels built on them. *)

open Fpx_klang.Dsl
module Ast = Fpx_klang.Ast
module Gpu = Fpx_gpu
module Isa = Fpx_sass.Isa
module Op = Fpx_sass.Operand
module Instr = Fpx_sass.Instr

let run ?(grid = 1) ?(block = 64) k params_of =
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  ignore (Gpu.Exec.run ~device:dev ~grid ~block ~params:(params_of dev) prog);
  dev

let feq = Alcotest.float 1e-4

(* two warps exchange values through shared memory across a barrier *)
let test_shared_cross_warp () =
  let k =
    kernel "xwarp" ~shmem:[ ("buf", Ast.F32, 64) ]
      [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "t" Ast.I32 tid_x;
        sstore "buf" (v "t") (cvt Ast.F32 (v "t"));
        barrier;
        (* read the mirrored lane: warp 0 reads warp 1's writes *)
        store "out" (v "t") (sload "buf" (i32 63 -: v "t")) ]
  in
  let dev =
    run k (fun dev ->
        [ Gpu.Param.Ptr (Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256);
          I32 64l ])
  in
  (* out base address: first 16-aligned alloc *)
  let out = 16 in
  let r = Gpu.Memory.read_f32_array dev.Gpu.Device.memory ~addr:out ~len:64 in
  Alcotest.check feq "lane 0 sees warp-1 value" 63.0 r.(0);
  Alcotest.check feq "lane 40 sees warp-0 value" 23.0 r.(40)

let test_block_reduction_correct () =
  (* the SHOC-style tree reduction must equal the host sum *)
  let n = 2048 in
  let values = Fpx_workloads.Workload.randf ~seed:77 n in
  let prog =
    Fpx_klang.Compile.compile
      (List.hd
         (Fpx_workloads.Catalog.find "Reduction").Fpx_workloads.Workload.kernels)
  in
  let dev = Gpu.Device.create () in
  let mem = dev.Gpu.Device.memory in
  let blocksum = Gpu.Memory.alloc_zeroed mem ~bytes:(4 * 2) in
  let a = Gpu.Memory.alloc mem ~bytes:(4 * n) in
  Gpu.Memory.write_f32_array mem ~addr:a values;
  ignore
    (Gpu.Exec.run ~device:dev ~grid:2 ~block:64
       ~params:[ Gpu.Param.Ptr blocksum; Ptr a; I32 (Int32.of_int n) ]
       prog);
  let sums = Gpu.Memory.read_f32_array mem ~addr:blocksum ~len:2 in
  let host = Array.fold_left ( +. ) 0.0 values in
  Alcotest.(check bool) "tree sum close to host sum" true
    (Float.abs (sums.(0) +. sums.(1) -. host) < host *. 1e-4)

let test_block_scan_correct () =
  let n = 64 in
  let values = Array.init n (fun i -> float_of_int (i mod 7) +. 0.5) in
  let prog =
    Fpx_klang.Compile.compile
      (List.hd (Fpx_workloads.Catalog.find "Scan").Fpx_workloads.Workload.kernels)
  in
  let dev = Gpu.Device.create () in
  let mem = dev.Gpu.Device.memory in
  let out = Gpu.Memory.alloc_zeroed mem ~bytes:(4 * n) in
  let a = Gpu.Memory.alloc mem ~bytes:(4 * n) in
  Gpu.Memory.write_f32_array mem ~addr:a values;
  ignore
    (Gpu.Exec.run ~device:dev ~grid:1 ~block:64
       ~params:[ Gpu.Param.Ptr out; Ptr a; I32 (Int32.of_int n) ]
       prog);
  let r = Gpu.Memory.read_f32_array mem ~addr:out ~len:n in
  let expect = ref 0.0 in
  Array.iteri
    (fun i x ->
      expect := !expect +. x;
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d" i)
        true
        (Float.abs (r.(i) -. !expect) < 1e-3))
    values

let test_atomic_add_f32 () =
  let k =
    kernel "atom" [ ("total", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        if_ (v "i" <: v "n") [ atomic_add "total" (i32 0) (f32 1.5) ] [] ]
  in
  let dev =
    run ~grid:2 ~block:64 k (fun dev ->
        [ Gpu.Param.Ptr (Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:16);
          I32 100l ])
  in
  Alcotest.check feq "100 atomic adds of 1.5" 150.0
    (Fpx_num.Fp32.to_float (Gpu.Memory.load_f32 dev.Gpu.Device.memory ~addr:16))

let test_atomic_add_i32 () =
  let k =
    kernel "atomi" [ ("count", ptr Ast.I32); ("n", scalar Ast.I32) ]
      [ let_ "i" Ast.I32 tid;
        if_ (v "i" <: v "n") [ atomic_add "count" (i32 0) (i32 3) ] [] ]
  in
  let dev =
    run ~grid:3 ~block:32 k (fun dev ->
        [ Gpu.Param.Ptr (Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:16);
          I32 96l ])
  in
  Alcotest.(check int32) "96 * 3" 288l
    (Gpu.Memory.load_i32 dev.Gpu.Device.memory ~addr:16)

let test_divergent_barrier_traps () =
  let prog =
    Fpx_sass.Program.make ~name:"divbar"
      [ Instr.make (Isa.S2R Isa.Tid_x) [ Op.reg 0 ];
        Instr.make (Isa.ISETP (Isa.cmp Isa.Lt)) [ Op.pred 0; Op.reg 0; Op.imm_i 8l ];
        (* lanes < 8 jump past the barrier: divergent arrival *)
        Instr.make ~guard:(Op.pred 0) Isa.BRA [ Op.label 4 ];
        Instr.make Isa.BAR [];
        Instr.make Isa.NOP [] ]
  in
  let dev = Gpu.Device.create () in
  Alcotest.(check bool) "trap" true
    (try
       ignore (Gpu.Exec.run ~device:dev ~grid:1 ~block:32 ~params:[] prog);
       false
     with Gpu.Exec.Trap _ -> true)

let test_shared_isolated_between_blocks () =
  (* block 1 must not see block 0's shared writes *)
  let k =
    kernel "iso" ~shmem:[ ("s", Ast.F32, 32) ]
      [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "t" Ast.I32 tid_x;
        if_ ((ctaid_x ==: i32 0) &&: (v "t" ==: i32 0))
          [ sstore "s" (i32 0) (f32 42.0) ]
          [];
        barrier;
        if_ (v "t" ==: i32 0)
          [ store "out" ctaid_x (sload "s" (i32 0)) ]
          [] ]
  in
  let dev =
    run ~grid:2 ~block:32 k (fun dev ->
        [ Gpu.Param.Ptr (Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:64);
          I32 64l ])
  in
  let r = Gpu.Memory.read_f32_array dev.Gpu.Device.memory ~addr:16 ~len:2 in
  Alcotest.check feq "block 0 wrote" 42.0 r.(0);
  Alcotest.check feq "block 1 clean" 0.0 r.(1)

let test_detector_sees_shared_values () =
  (* an INF computed from a shared-memory operand is detected at the
     consuming FADD like any other *)
  let k =
    kernel "shinf" ~shmem:[ ("s", Ast.F32, 32) ]
      [ ("out", ptr Ast.F32); ("n", scalar Ast.I32) ]
      [ let_ "t" Ast.I32 tid_x;
        sstore "s" (v "t") (f32 3e38);
        barrier;
        store "out" (v "t") (sload "s" (v "t") +: sload "s" (v "t")) ]
  in
  let prog = Fpx_klang.Compile.compile k in
  let dev = Gpu.Device.create () in
  let rt = Fpx_nvbit.Runtime.create dev in
  let det = Gpu_fpx.Detector.create dev in
  Fpx_nvbit.Runtime.attach rt (Gpu_fpx.Detector.tool det);
  let out = Gpu.Memory.alloc_zeroed dev.Gpu.Device.memory ~bytes:256 in
  Fpx_nvbit.Runtime.launch rt ~grid:1 ~block:32
    ~params:[ Gpu.Param.Ptr out; I32 32l ] prog;
  Alcotest.(check int) "inf from shared" 1
    (Gpu_fpx.Detector.count det ~fmt:Isa.FP32 ~exce:Fpx_tool.Exce.Inf)

let test_kmeans_atomic_counts () =
  (* the upgraded kmeans: counts must sum to n *)
  let w = Fpx_workloads.Catalog.find "kmeans" in
  let m = Fpx_harness.Runner.run ~tool:Fpx_harness.Runner.No_tool w in
  Alcotest.(check bool) "runs" true (m.Fpx_harness.Runner.dyn_instrs > 0)

let suite =
  ( "coop",
    [ Alcotest.test_case "shared memory crosses warps" `Quick
        test_shared_cross_warp;
      Alcotest.test_case "block tree reduction" `Quick
        test_block_reduction_correct;
      Alcotest.test_case "block scan" `Quick test_block_scan_correct;
      Alcotest.test_case "atomic add f32" `Quick test_atomic_add_f32;
      Alcotest.test_case "atomic add i32" `Quick test_atomic_add_i32;
      Alcotest.test_case "divergent barrier traps" `Quick
        test_divergent_barrier_traps;
      Alcotest.test_case "shared isolated between blocks" `Quick
        test_shared_isolated_between_blocks;
      Alcotest.test_case "detector sees shared-fed values" `Quick
        test_detector_sees_shared_values;
      Alcotest.test_case "kmeans with atomics runs" `Quick
        test_kmeans_atomic_counts ] )
