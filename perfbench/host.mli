(** Host context read from [/proc] and the checkout. Diagnostic only:
    no metric is rescaled by it. *)

val status_kb : string -> int
(** A [kB] field of [/proc/self/status] such as ["VmHWM"] or ["VmRSS"];
    0 when unreadable. *)

val threads : unit -> int
(** The [Threads] field of [/proc/self/status]. *)

val minor_faults : unit -> int
(** Minor page faults of this process so far ([/proc/self/stat]). *)

val steal_ticks : unit -> int
(** Aggregate steal ticks from the [cpu] line of [/proc/stat]. *)

val context : steal0:int -> (string * string) list
(** [(key, JSON value)] pairs: nproc, OCaml version, git revision,
    [OCAMLRUNPARAM], 1-minute load average, and steal ticks since
    [steal0]. *)
