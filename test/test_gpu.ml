(* Substrate tests: device memory, the parameter ABI, the device→host
   channel (congestion model included), and run statistics. *)

open Fpx_gpu
module Fp32 = Fpx_num.Fp32

(* --- Memory --------------------------------------------------------------- *)

let test_alloc_alignment () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc m ~bytes:5 in
  let b = Memory.alloc m ~bytes:7 in
  Alcotest.(check int) "16-aligned a" 0 (a mod 16);
  Alcotest.(check int) "16-aligned b" 0 (b mod 16);
  Alcotest.(check bool) "disjoint" true (b >= a + 5)

let test_alloc_garbage_deterministic () =
  let m1 = Memory.create ~size_bytes:4096 in
  let m2 = Memory.create ~size_bytes:4096 in
  let a1 = Memory.alloc m1 ~bytes:64 in
  let a2 = Memory.alloc m2 ~bytes:64 in
  Alcotest.(check bool) "same garbage across devices" true
    (Memory.read_i32_array m1 ~addr:a1 ~len:16
    = Memory.read_i32_array m2 ~addr:a2 ~len:16);
  (* and it is garbage, not zero *)
  Alcotest.(check bool) "non-zero garbage" true
    (Array.exists (fun x -> x <> 0l) (Memory.read_i32_array m1 ~addr:a1 ~len:16))

let test_alloc_zeroed () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc_zeroed m ~bytes:64 in
  Alcotest.(check bool) "all zero" true
    (Array.for_all (( = ) 0l) (Memory.read_i32_array m ~addr:a ~len:16))

let test_typed_roundtrips () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc m ~bytes:64 in
  Memory.store_f64 m ~addr:a 3.14159;
  Alcotest.(check (float 1e-12)) "f64" 3.14159 (Memory.load_f64 m ~addr:a);
  Memory.store_f32 m ~addr:(a + 8) (Fp32.of_float 2.5);
  Alcotest.(check (float 1e-9)) "f32" 2.5
    (Fp32.to_float (Memory.load_f32 m ~addr:(a + 8)));
  Memory.store_i64 m ~addr:(a + 16) 0x1234_5678_9abc_def0L;
  Alcotest.(check int64) "i64" 0x1234_5678_9abc_def0L
    (Memory.load_i64 m ~addr:(a + 16));
  (* little-endian halves *)
  Alcotest.(check int32) "lo word" 0x9abc_def0l (Memory.load_i32 m ~addr:(a + 16))

let test_array_roundtrips () =
  let m = Memory.create ~size_bytes:4096 in
  let a = Memory.alloc m ~bytes:256 in
  let xs = [| 1.5; -2.25; 1e30; -0.0 |] in
  Memory.write_f32_array m ~addr:a xs;
  Alcotest.(check (array (float 1e25))) "f32 array" xs
    (Memory.read_f32_array m ~addr:a ~len:4);
  Memory.write_f64_array m ~addr:(a + 64) xs;
  Alcotest.(check (array (float 1e-12))) "f64 array" xs
    (Memory.read_f64_array m ~addr:(a + 64) ~len:4)

let test_oom_and_fault () =
  let m = Memory.create ~size_bytes:256 in
  Alcotest.(check bool) "oom" true
    (try ignore (Memory.alloc m ~bytes:4096); false
     with Memory.Fault _ -> true);
  Alcotest.(check bool) "oob read" true
    (try ignore (Memory.load_i32 m ~addr:255); false
     with Memory.Fault _ -> true);
  Alcotest.(check bool) "negative addr" true
    (try ignore (Memory.load_i32 m ~addr:(-4)); false
     with Memory.Fault _ -> true)

(* --- Memory against a flat reference ------------------------------------- *)

(* The memory model as it was when the whole address space was one
   zero-filled [Bytes]: on-demand backing must be indistinguishable from
   it in every value, fault and digest. *)
module Flat = struct
  type t = { buf : Bytes.t; mutable brk : int }

  let create limit = { buf = Bytes.make limit '\000'; brk = 16 }

  let garbage_byte addr =
    let x = addr * 2654435761 land 0x7fffffff in
    let x = x lxor (x lsr 13) in
    let x = x * 1103515245 land 0x7fffffff in
    (x lsr 7) land 0xff

  let bounds t ~addr n =
    if addr < 0 || addr + n > Bytes.length t.buf then
      raise (Memory.Fault { addr; size = n })

  let alloc t bytes =
    let addr = (t.brk + 15) / 16 * 16 in
    if addr + bytes > Bytes.length t.buf then
      raise (Memory.Fault { addr; size = bytes });
    Bytes.fill t.buf t.brk (addr - t.brk) '\000';
    t.brk <- addr + bytes;
    for k = 0 to bytes - 1 do
      Bytes.set_uint8 t.buf (addr + k) (garbage_byte (addr + k))
    done;
    addr

  let alloc_zeroed t bytes =
    let addr = alloc t bytes in
    Bytes.fill t.buf addr bytes '\000';
    addr

  let digest t = Digest.to_hex (Digest.subbytes t.buf 0 t.brk)
end

let mem_limit = 256 * 1024

(* Where an access lands, resolved against the reference model's [brk]
   just before the step. *)
type where =
  | Below_brk of int  (** [k mod brk] *)
  | Past_brk of int  (** [brk + k] *)
  | Backing_edge of int * int  (** [(4096 lsl k) + d]: the doubling points *)
  | Near_limit of int  (** [limit - d] *)
  | Negative of int  (** [-1 - k] *)

type mem_op =
  | Alloc of int
  | Alloc_zeroed of int
  | Load32 of where
  | Store32 of where * int32
  | Load64 of where
  | Store64 of where * int64

type mem_result =
  | Addr of int
  | V32 of int32
  | V64 of int64
  | Stored
  | Fault of int * int

let resolve (f : Flat.t) = function
  | Below_brk k -> k mod f.Flat.brk
  | Past_brk k -> f.Flat.brk + k
  | Backing_edge (k, d) -> (4096 lsl k) + d
  | Near_limit d -> mem_limit - d
  | Negative k -> -1 - k

let show_where = function
  | Below_brk k -> Printf.sprintf "below_brk %d" k
  | Past_brk k -> Printf.sprintf "past_brk %d" k
  | Backing_edge (k, d) -> Printf.sprintf "edge (%d, %d)" k d
  | Near_limit d -> Printf.sprintf "limit-%d" d
  | Negative k -> Printf.sprintf "-1-%d" k

let show_mem_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Alloc_zeroed n -> Printf.sprintf "alloc_zeroed %d" n
  | Load32 w -> "load32 " ^ show_where w
  | Store32 (w, v) -> Printf.sprintf "store32 %s %ld" (show_where w) v
  | Load64 w -> "load64 " ^ show_where w
  | Store64 (w, v) -> Printf.sprintf "store64 %s %Ld" (show_where w) v

let gen_mem_op =
  let open QCheck.Gen in
  let where =
    frequency
      [ (4, map (fun k -> Below_brk k) (int_bound 1_000_000));
        (2, map (fun k -> Past_brk k) (int_bound 8192));
        ( 2,
          map2 (fun k d -> Backing_edge (k, d)) (int_bound 6) (int_range (-8) 8)
        );
        (1, map (fun d -> Near_limit d) (int_range (-2) 9));
        (1, map (fun k -> Negative k) (int_bound 16)) ]
  in
  let size =
    frequency
      [ (12, int_bound 3000);
        (2, int_bound 40_000);
        (1, int_range mem_limit (2 * mem_limit)) ]
  in
  frequency
    [ (2, map (fun n -> Alloc n) size);
      (1, map (fun n -> Alloc_zeroed n) size);
      (3, map (fun w -> Load32 w) where);
      (3, map2 (fun w v -> Store32 (w, Int32.of_int v)) where int);
      (2, map (fun w -> Load64 w) where);
      (2, map2 (fun w v -> Store64 (w, Int64.of_int v)) where int) ]

let arb_mem_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_mem_op)

let mem_step m (f : Flat.t) op =
  let catch g =
    try g () with Memory.Fault { addr; size } -> Fault (addr, size)
  in
  let on_both g h = (catch g, catch h) in
  let addr w = resolve f w in
  match op with
  | Alloc n ->
    on_both
      (fun () -> Addr (Memory.alloc m ~bytes:n))
      (fun () -> Addr (Flat.alloc f n))
  | Alloc_zeroed n ->
    on_both
      (fun () -> Addr (Memory.alloc_zeroed m ~bytes:n))
      (fun () -> Addr (Flat.alloc_zeroed f n))
  | Load32 w ->
    let addr = addr w in
    on_both
      (fun () -> V32 (Memory.load_i32 m ~addr))
      (fun () ->
        Flat.bounds f ~addr 4;
        V32 (Bytes.get_int32_le f.Flat.buf addr))
  | Store32 (w, v) ->
    let addr = addr w in
    on_both
      (fun () -> Memory.store_i32 m ~addr v; Stored)
      (fun () ->
        Flat.bounds f ~addr 4;
        Bytes.set_int32_le f.Flat.buf addr v;
        Stored)
  | Load64 w ->
    let addr = addr w in
    on_both
      (fun () -> V64 (Memory.load_i64 m ~addr))
      (fun () ->
        Flat.bounds f ~addr 8;
        V64 (Bytes.get_int64_le f.Flat.buf addr))
  | Store64 (w, v) ->
    let addr = addr w in
    on_both
      (fun () -> Memory.store_i64 m ~addr v; Stored)
      (fun () ->
        Flat.bounds f ~addr 8;
        Bytes.set_int64_le f.Flat.buf addr v;
        Stored)

let prop_memory_vs_flat =
  QCheck.Test.make ~count:300 ~name:"memory = flat reference model"
    arb_mem_ops (fun ops ->
      let m = Memory.create ~size_bytes:mem_limit in
      let f = Flat.create mem_limit in
      List.for_all
        (fun op ->
          let got, want = mem_step m f op in
          got = want
          && Memory.digest m = Flat.digest f
          && Memory.size m = mem_limit)
        ops)

(* The fixed edges the random walk may miss: the last in-limit words,
   the limit itself and one byte into a fresh backing. *)
let test_memory_edges () =
  let m = Memory.create ~size_bytes:mem_limit in
  let f = Flat.create mem_limit in
  List.iter
    (fun op ->
      let got, want = mem_step m f op in
      Alcotest.(check bool) (show_mem_op op) true (got = want);
      Alcotest.(check string) "digest" (Flat.digest f) (Memory.digest m))
    [ Load32 (Near_limit 4); Load64 (Near_limit 8); Load32 (Near_limit 3);
      Load64 (Near_limit 7); Load32 (Near_limit 0); Store32 (Near_limit 4, 7l);
      Load32 (Near_limit 4); Store64 (Near_limit 8, -1L);
      Load64 (Near_limit 8); Load32 (Negative 0); Store64 (Negative 3, 1L);
      Load32 (Backing_edge (0, -2)); Store64 (Backing_edge (1, -4), 5L);
      Load64 (Backing_edge (1, -4)); Alloc 100; Alloc_zeroed 10_000;
      Load32 (Past_brk 0); Alloc (2 * mem_limit); Alloc mem_limit ]

(* --- Param ABI ------------------------------------------------------------ *)

let test_param_layout () =
  let params =
    [ Param.Ptr 64; Param.F64 2.5; Param.I32 7l; Param.F32 Fp32.one ]
  in
  (* ptr at 0x160, f64 aligned to 0x168, i32 at 0x170, f32 at 0x174 *)
  Alcotest.(check (list int)) "offsets" [ 0x160; 0x168; 0x170; 0x174 ]
    (Param.offsets params);
  let img = Param.marshal params in
  Alcotest.(check int32) "ptr" 64l (Bytes.get_int32_le img 0x160);
  Alcotest.(check (float 1e-12)) "f64" 2.5
    (Int64.float_of_bits (Bytes.get_int64_le img 0x168));
  Alcotest.(check int32) "i32" 7l (Bytes.get_int32_le img 0x170);
  Alcotest.(check int32) "f32" (Fp32.to_bits Fp32.one)
    (Bytes.get_int32_le img 0x174)

let test_param_abi_matches_compiler () =
  (* the compiler's view of the ABI must agree with the runtime's *)
  let k =
    Fpx_klang.Dsl.kernel "abi_check"
      [ ("p", Fpx_klang.Dsl.ptr Fpx_klang.Ast.F32);
        ("s", Fpx_klang.Dsl.scalar Fpx_klang.Ast.F64);
        ("n", Fpx_klang.Dsl.scalar Fpx_klang.Ast.I32) ]
      [ Fpx_klang.Dsl.let_ "i" Fpx_klang.Ast.I32 Fpx_klang.Dsl.tid ]
  in
  let compiler_offs = List.map snd (Fpx_klang.Compile.param_offsets k) in
  let runtime_offs =
    Param.offsets [ Param.Ptr 0; Param.F64 0.0; Param.I32 0l ]
  in
  Alcotest.(check (list int)) "ABI agreement" runtime_offs compiler_offs

(* --- Channel --------------------------------------------------------------- *)

let test_channel_order_and_drain () =
  let stats = Stats.create () in
  let ch = Channel.create ~cost:Cost.default () in
  Channel.new_launch ch;
  List.iter (fun x -> Channel.push ch ~stats x) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (Channel.drain ch ~stats);
  Alcotest.(check (list int)) "empty after drain" [] (Channel.drain ch ~stats);
  Alcotest.(check int) "records counted" 3 stats.Stats.records_pushed

let test_channel_costs () =
  let cost = Cost.default in
  let stats = Stats.create () in
  let ch = Channel.create ~cost () in
  Channel.new_launch ch;
  Channel.push ch ~stats 0;
  Alcotest.(check int) "uncongested device cost" cost.Cost.channel_record
    stats.Stats.tool_cycles;
  ignore (Channel.drain ch ~stats);
  Alcotest.(check int) "host cost" cost.Cost.host_per_record
    stats.Stats.host_cycles

let test_channel_congestion () =
  let cost = { Cost.default with Cost.channel_capacity = 4 } in
  let stats = Stats.create () in
  let ch = Channel.create ~cost () in
  Channel.new_launch ch;
  for i = 1 to 4 do Channel.push ch ~stats i done;
  let before = stats.Stats.tool_cycles in
  Channel.push ch ~stats 5;
  let marginal = stats.Stats.tool_cycles - before in
  Alcotest.(check bool) "congested record costs more" true
    (marginal > cost.Cost.channel_record);
  (* new launch resets the congestion counter *)
  Channel.new_launch ch;
  let before = stats.Stats.tool_cycles in
  Channel.push ch ~stats 6;
  Alcotest.(check int) "reset after new launch" cost.Cost.channel_record
    (stats.Stats.tool_cycles - before)

let test_channel_congestion_grows () =
  (* the stall per record rises with the backlog (the hang mechanism) *)
  let cost = { Cost.default with Cost.channel_capacity = 2 } in
  let stats = Stats.create () in
  let ch = Channel.create ~cost () in
  Channel.new_launch ch;
  let marginal_at n =
    while Channel.pushed_this_launch ch < n do
      Channel.push ch ~stats 0
    done;
    let before = stats.Stats.tool_cycles in
    Channel.push ch ~stats 0;
    stats.Stats.tool_cycles - before
  in
  let early = marginal_at 4 in
  let late = marginal_at 200 in
  Alcotest.(check bool) "backpressure grows" true (late > early)

(* --- Stats ------------------------------------------------------------------ *)

let test_stats_add_and_slowdown () =
  let a = Stats.create () in
  a.Stats.base_cycles <- 100;
  a.Stats.tool_cycles <- 150;
  a.Stats.host_cycles <- 50;
  Alcotest.(check (float 1e-9)) "slowdown" 3.0 (Stats.slowdown a);
  let b = Stats.create () in
  b.Stats.base_cycles <- 100;
  b.Stats.records_pushed <- 7;
  Stats.add a b;
  Alcotest.(check int) "accumulated base" 200 a.Stats.base_cycles;
  Alcotest.(check int) "accumulated records" 7 a.Stats.records_pushed;
  Alcotest.(check int) "total" 400 (Stats.total_cycles a)

let test_stats_empty_slowdown () =
  Alcotest.(check (float 1e-9)) "no base = 1.0" 1.0
    (Stats.slowdown (Stats.create ()))

let test_stats_zero_base_nonzero_overhead () =
  (* a launch that executes no base instructions but is still charged
     tool/host cycles (e.g. an empty kernel under instrumentation) has an
     infinite true ratio, not a flattering 1.0 *)
  let s = Stats.create () in
  s.Stats.tool_cycles <- 40;
  Alcotest.(check bool) "tool-only is +inf" true
    (Stats.slowdown s = Float.infinity);
  let h = Stats.create () in
  h.Stats.host_cycles <- 3;
  Alcotest.(check bool) "host-only is +inf" true
    (Stats.slowdown h = Float.infinity)

let suite =
  ( "gpu",
    [ Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
      Alcotest.test_case "deterministic garbage" `Quick
        test_alloc_garbage_deterministic;
      Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
      Alcotest.test_case "typed load/store" `Quick test_typed_roundtrips;
      Alcotest.test_case "array transfer" `Quick test_array_roundtrips;
      Alcotest.test_case "oom and faults" `Quick test_oom_and_fault;
      Alcotest.test_case "param layout" `Quick test_param_layout;
      Alcotest.test_case "param ABI agreement" `Quick
        test_param_abi_matches_compiler;
      Alcotest.test_case "channel fifo" `Quick test_channel_order_and_drain;
      Alcotest.test_case "channel costs" `Quick test_channel_costs;
      Alcotest.test_case "channel congestion" `Quick test_channel_congestion;
      Alcotest.test_case "channel backpressure" `Quick
        test_channel_congestion_grows;
      Alcotest.test_case "stats add/slowdown" `Quick
        test_stats_add_and_slowdown;
      Alcotest.test_case "stats empty" `Quick test_stats_empty_slowdown;
      Alcotest.test_case "stats zero-base overhead" `Quick
        test_stats_zero_base_nonzero_overhead;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0x6d656d |])
        prop_memory_vs_flat;
      Alcotest.test_case "memory edges = flat reference" `Quick
        test_memory_edges ] )
