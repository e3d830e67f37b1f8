(* [limit] is the logical size: every bounds check and [Fault] is
   against it. [buf] backs only a prefix of it, starting small and
   doubling (zero-filled, capped at [limit]) when an allocation or an
   in-limit access reaches past it; bytes past the backing read as zero,
   as the untouched pages of a fresh mapping do. *)
type t = { mutable buf : Bytes.t; limit : int; mutable brk : int }

exception Fault of { addr : int; size : int }

let initial_backing = 4096

(* Deterministic garbage for fresh allocations: a cheap xorshift keyed on
   the address, giving stable "uninitialised memory" contents across runs
   so the SRU case study is reproducible. *)
let garbage_byte addr =
  let x = addr * 2654435761 land 0x7fffffff in
  let x = x lxor (x lsr 13) in
  let x = x * 1103515245 land 0x7fffffff in
  (x lsr 7) land 0xff

(* [digest] hashes [0, brk): the reserved null page and the 16-byte
   alignment gaps between allocations are inside that window, so they
   must hold defined bytes. Zero, because fresh mappings are zero-filled
   and recorded campaign baselines were produced that way. *)
let create ~size_bytes =
  if size_bytes < 16 then invalid_arg "Memory.create";
  { buf = Bytes.make (min initial_backing size_bytes) '\000';
    limit = size_bytes;
    brk = 16 }

let size t = t.limit

(* Back at least [need] bytes ([need <= limit]). *)
let grow t need =
  let old = Bytes.length t.buf in
  let rec double n = if n >= need then n else double (2 * n) in
  let len = min t.limit (double old) in
  let buf = Bytes.extend t.buf 0 (len - old) in
  Bytes.fill buf old (len - old) '\000';
  t.buf <- buf

(* One compare on the fast path: the [lor] is negative iff [addr < 0]
   or the access ends past the backing. *)
let[@inline] backed t ~addr ~size:n =
  if addr lor (Bytes.length t.buf - n - addr) < 0 then begin
    if addr < 0 || addr > t.limit - n then raise (Fault { addr; size = n });
    grow t (addr + n)
  end

let alloc t ~bytes =
  let addr = (t.brk + 15) / 16 * 16 in
  if addr + bytes > t.limit then raise (Fault { addr; size = bytes });
  if addr + bytes > Bytes.length t.buf then grow t (addr + bytes);
  Bytes.fill t.buf t.brk (addr - t.brk) '\000';
  t.brk <- addr + bytes;
  for k = 0 to bytes - 1 do
    Bytes.set_uint8 t.buf (addr + k) (garbage_byte (addr + k))
  done;
  addr

let alloc_zeroed t ~bytes =
  let addr = alloc t ~bytes in
  Bytes.fill t.buf addr bytes '\000';
  addr

let digest t = Digest.to_hex (Digest.subbytes t.buf 0 t.brk)

let load_i32 t ~addr =
  backed t ~addr ~size:4;
  Bytes.get_int32_le t.buf addr

let store_i32 t ~addr v =
  backed t ~addr ~size:4;
  Bytes.set_int32_le t.buf addr v

let load_i64 t ~addr =
  backed t ~addr ~size:8;
  Bytes.get_int64_le t.buf addr

let store_i64 t ~addr v =
  backed t ~addr ~size:8;
  Bytes.set_int64_le t.buf addr v

let load_f32 t ~addr = load_i32 t ~addr
let store_f32 t ~addr v = store_i32 t ~addr v
let load_f64 t ~addr = Int64.float_of_bits (load_i64 t ~addr)
let store_f64 t ~addr v = store_i64 t ~addr (Int64.bits_of_float v)

let write_f32_array t ~addr xs =
  Array.iteri
    (fun i x -> store_f32 t ~addr:(addr + (4 * i)) (Fpx_num.Fp32.of_float x))
    xs

let read_f32_array t ~addr ~len =
  Array.init len (fun i -> Fpx_num.Fp32.to_float (load_f32 t ~addr:(addr + (4 * i))))

let write_f64_array t ~addr xs =
  Array.iteri (fun i x -> store_f64 t ~addr:(addr + (8 * i)) x) xs

let read_f64_array t ~addr ~len =
  Array.init len (fun i -> load_f64 t ~addr:(addr + (8 * i)))

let write_i32_array t ~addr xs =
  Array.iteri (fun i x -> store_i32 t ~addr:(addr + (4 * i)) x) xs

let read_i32_array t ~addr ~len =
  Array.init len (fun i -> load_i32 t ~addr:(addr + (4 * i)))
