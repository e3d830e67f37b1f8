(** Order statistics for per-pass timing metrics. *)

val median : float array -> float
(** Mean of the two middle samples when the count is even.
    @raise Invalid_argument on an empty array. *)

val rank : n:int -> int -> int
(** [rank ~n p]: 1-based nearest rank of the [p]-th percentile of [n]
    samples, [ceil (p * n / 100)] (at least 1). *)

val tail_percentile : int -> int option
(** The highest whole percentile in [50 .. 99] with at least 10 of [n]
    samples above its rank ([Some 93] for [n = 151]); [None] below 20
    samples. *)

val tail : float array -> int * float
(** [(p, value)] of {!tail_percentile} over the samples.
    @raise Invalid_argument with fewer than 20 samples. *)

val valid_name : string -> bool
(** Metric names are non-empty and drawn from [A-Za-z0-9_.-]. *)
