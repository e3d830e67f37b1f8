(* The codec lives in Fpx_obs.Json; this alias keeps the name
   Fpx_serve.Json, which the benchmark under perfbench/ still uses. *)
include Fpx_obs.Json
