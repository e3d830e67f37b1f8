open Fpx_sass
open Fpx_gpu
module Fp32 = Fpx_num.Fp32
module Fp64 = Fpx_num.Fp64
module Kind = Fpx_num.Kind
module Exce = Fpx_tool.Exce

type finding = {
  kernel : string;
  pc : int;
  loc : string;
  fmt : Isa.fp_format;
  exce : Exce.t;
}

(* What crosses the channel: the raw destination value plus enough
   context for host-side classification. *)
type record = {
  r_kernel : string;
  r_pc : int;
  r_loc : string;
  r_fmt : Isa.fp_format;
  r_rcp : bool;  (** destination of a MUFU reciprocal-class op *)
  r_lo : int32;
  r_hi : int32;  (** meaningful only for FP64 *)
}

type t = {
  channel : record Channel.t;
  seen : (string * int * Isa.fp_format * Exce.t, unit) Hashtbl.t;
  mutable findings_rev : finding list;
  mutable received : int;
}

let create (device : Device.t) =
  {
    channel =
      Channel.create ~fault:device.Device.fault ?bw:device.Device.bw
        ~cost:device.Device.cost ();
    seen = Hashtbl.create 64;
    findings_rev = [];
    received = 0;
  }

(* BinFPE's instrumentation set: FP arithmetic only. *)
type plan = P32 of int * bool | P64 of int * int * bool

let plan (i : Instr.t) =
  match Instr.dest_reg_num i with
  | None -> None
  | Some d -> (
    match i.Instr.op with
    | Isa.FADD | Isa.FADD32I | Isa.FMUL | Isa.FMUL32I | Isa.FFMA
    | Isa.FFMA32I ->
      Some (P32 (d, false))
    | Isa.MUFU (Isa.Rcp | Isa.Rsq) -> Some (P32 (d, true))
    | Isa.MUFU (Isa.Sqrt | Isa.Ex2 | Isa.Lg2 | Isa.Sin | Isa.Cos) ->
      Some (P32 (d, false))
    | Isa.MUFU (Isa.Rcp64h | Isa.Rsq64h) -> Some (P64 (d - 1, d, true))
    | Isa.DADD | Isa.DMUL | Isa.DFMA -> Some (P64 (d, d + 1, false))
    (* FP16 is not supported by BinFPE (it predates the extension). *)
    | Isa.HADD2 | Isa.HMUL2 | Isa.HFMA2 -> None
    (* Control-flow opcodes: missed, as the GPU-FPX paper reports. *)
    | Isa.FSEL | Isa.FSET _ | Isa.FSETP _ | Isa.FMNMX | Isa.DSETP _
    | Isa.PSETP _ | Isa.FCHK | Isa.SEL | Isa.F2F _ | Isa.I2F _ | Isa.F2I _ | Isa.MOV | Isa.MOV32I
    | Isa.IADD | Isa.IMAD | Isa.ISETP _ | Isa.SHL | Isa.SHR | Isa.LOP_AND
    | Isa.LOP_OR | Isa.LOP_XOR | Isa.LDG _ | Isa.STG _ | Isa.LDS _ | Isa.STS _
    | Isa.ATOM_ADD _ | Isa.S2R _ | Isa.BRA | Isa.BAR | Isa.EXIT | Isa.NOP ->
      None)

let instrument t prog b =
  Array.iter
    (fun (i : Instr.t) ->
      match plan i with
      | None -> ()
      | Some p ->
        let r_kernel = prog.Program.mangled
        and r_pc = i.Instr.pc
        and r_loc = Instr.loc_string i in
        let n_values = match p with P32 _ -> 1 | P64 _ -> 2 in
        Fpx_tool.Inject.insert_after b ~pc:i.Instr.pc ~n_values
          (fun ctx api ->
            List.iter
              (fun lane ->
                let record =
                  match p with
                  | P32 (d, rcp) ->
                    {
                      r_kernel;
                      r_pc;
                      r_loc;
                      r_fmt = Isa.FP32;
                      r_rcp = rcp;
                      r_lo = api.Exec.read_reg ~lane d;
                      r_hi = 0l;
                    }
                  | P64 (lo, hi, rcp) ->
                    {
                      r_kernel;
                      r_pc;
                      r_loc;
                      r_fmt = Isa.FP64;
                      r_rcp = rcp;
                      r_lo = api.Exec.read_reg ~lane lo;
                      r_hi = api.Exec.read_reg ~lane hi;
                    }
                in
                Channel.push t.channel ~stats:ctx.Exec.stats record)
              api.Exec.executing_lanes))
    prog.Program.instrs

(* Host-side classification of a received value. *)
let classify_record r =
  let kind =
    match r.r_fmt with
    | Isa.FP32 | Isa.FP16 -> Fp32.classify r.r_lo
    | Isa.FP64 -> Fp64.classify (Fp64.of_words ~lo:r.r_lo ~hi:r.r_hi)
  in
  if r.r_rcp then
    match kind with
    | Kind.Nan | Kind.Inf -> Some Exce.Div0
    | Kind.Subnormal | Kind.Zero | Kind.Normal -> None
  else Exce.of_kind kind

let on_launch_end t stats =
  let records = Channel.drain t.channel ~stats in
  t.received <- t.received + List.length records;
  List.iter
    (fun r ->
      match classify_record r with
      | None -> ()
      | Some exce ->
        let key = (r.r_kernel, r.r_pc, r.r_fmt, exce) in
        if not (Hashtbl.mem t.seen key) then begin
          Hashtbl.add t.seen key ();
          t.findings_rev <-
            {
              kernel = r.r_kernel;
              pc = r.r_pc;
              loc = r.r_loc;
              fmt = r.r_fmt;
              exce;
            }
            :: t.findings_rev
        end)
    records

let findings t = List.rev t.findings_rev

let count t ~fmt ~exce =
  List.length
    (List.filter
       (fun f -> f.fmt = fmt && Exce.equal f.exce exce)
       t.findings_rev)

let records_received t = t.received

type Fpx_tool.extra += Binfpe of t

module Tool = struct
  type nonrec t = t

  let id = "binfpe"
  let name _ = "BinFPE"
  let should_instrument _ ~kernel:_ ~invocation:_ = true
  let instrument = instrument
  let on_launch_begin t _ = Channel.new_launch t.channel
  let on_drain t stats ~kernel:_ = on_launch_end t stats

  let report t =
    {
      Fpx_tool.counts =
        Fpx_tool.cells_of (fun ~fmt ~exce -> count t ~fmt ~exce);
      log = [];
      degradations = [];
      extras = [ Binfpe t ];
    }
end

let tool t = Fpx_tool.Instance ((module Tool), t)
