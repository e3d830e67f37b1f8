(** Output digests pinned at the commit that defined the benchmark.

    [oracle.txt] holds one [kind md5hex key] line per expected output
    (the key runs to the end of the line and may hold spaces):
    [catalog SUITE/PROGRAM] is the digest of
    {!Fpx_harness.Runner.to_json} under the default detector,
    [serve TOOL/PROGRAM] the digest of the daemon's response bytes, and
    [campaign PLANSEED/TOTAL] the digest of
    {!Fpx_campaign.Campaign.summary_json}. *)

type t

val load : string -> t
(** @raise Sys_error when the file is missing. *)

val digest : string -> string
(** MD5 in hex, the format the file stores. *)

val expected : t -> kind:string -> key:string -> string option

val line : kind:string -> key:string -> string -> string
(** [line ~kind ~key output] renders the pinned line for [output]. *)

(** Failure accounting: an op fails when it raises, reports a status
    other than ok, or its output differs from the pinned digest. *)
type tally = { mutable attempted : int; mutable failed : int }

val tally : unit -> tally

val record :
  ?ops:int -> tally -> t -> kind:string -> key:string -> string option -> unit
(** Count [ops] (default 1) ops that share one output, as failed unless
    it matches the pinned digest; [None] means the op raised or
    reported a non-ok status. *)

val fail_frac : tally -> float
