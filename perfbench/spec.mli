(** The workload and metric lists of [BENCHMARK.json], the one place
    they are written down. *)

val workloads : ?path:string -> unit -> string list

val metrics : ?path:string -> string -> (string * string) list
(** [metrics section] is the [(name, unit)] list of ["end_to_end"] or
    ["per_layer"], in file order.
    @raise Failure when the file does not have that shape. *)
