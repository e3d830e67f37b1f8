type counter = { c_name : string; c_help : string; mutable c_v : int }
type gauge = { g_name : string; g_help : string; mutable g_v : float }

type histogram = {
  h_name : string;
  h_help : string;
  h_buckets : float array;  (* ascending upper bounds, without +Inf *)
  h_counts : int array;  (* length = Array.length h_buckets + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order_rev : metric list;  (* registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; order_rev = [] }

let register t name m =
  Hashtbl.add t.tbl name m;
  t.order_rev <- m :: t.order_rev

let kind_error name =
  invalid_arg
    (Printf.sprintf "Fpx_obs.Metrics: %S already registered as another kind"
       name)

let counter t ?(help = "") name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = { c_name = name; c_help = help; c_v = 0 } in
    register t name (Counter c);
    c

let gauge t ?(help = "") name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = { g_name = name; g_help = help; g_v = 0.0 } in
    register t name (Gauge g);
    g

let histogram t ?(help = "") ~buckets name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ -> kind_error name
  | None ->
    let b = Array.of_list buckets in
    Array.sort compare b;
    let h =
      {
        h_name = name;
        h_help = help;
        h_buckets = b;
        h_counts = Array.make (Array.length b + 1) 0;
        h_sum = 0.0;
        h_count = 0;
      }
    in
    register t name (Histogram h);
    h

let incr c = c.c_v <- c.c_v + 1
let add c n = c.c_v <- c.c_v + n

let add_named t ?help name n = add (counter t ?help name) n
let value c = c.c_v
let set g v = g.g_v <- v
let gauge_value g = g.g_v

let observe h v =
  let n = Array.length h.h_buckets in
  let i = ref 0 in
  while !i < n && v > h.h_buckets.(!i) do
    i := !i + 1
  done;
  h.h_counts.(!i) <- h.h_counts.(!i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let cardinal t = List.length t.order_rev

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> Some c.c_v
  | _ -> None

let gauge_read t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> Some g.g_v
  | _ -> None

let in_order t = List.rev t.order_rev

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

(* Exports sort by name so the rendered text depends only on the
   registry's contents, never on registration order — parallel runs that
   register the same metrics in different orders export identical
   bytes. *)
let by_name t =
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) (in_order t)

(* --- Merge ----------------------------------------------------------- *)

let merge_into dst src =
  List.iter
    (function
      | Counter c -> add (counter dst ~help:c.c_help c.c_name) c.c_v
      | Gauge g -> set (gauge dst ~help:g.g_help g.g_name) g.g_v
      | Histogram h ->
        let d =
          histogram dst ~help:h.h_help
            ~buckets:(Array.to_list h.h_buckets)
            h.h_name
        in
        if d.h_buckets <> h.h_buckets then
          invalid_arg
            (Printf.sprintf
               "Fpx_obs.Metrics.merge: %S has mismatched buckets" h.h_name);
        Array.iteri
          (fun i n -> d.h_counts.(i) <- d.h_counts.(i) + n)
          h.h_counts;
        d.h_sum <- d.h_sum +. h.h_sum;
        d.h_count <- d.h_count + h.h_count)
    (in_order src)

let merge a b =
  let t = create () in
  merge_into t a;
  merge_into t b;
  t

(* --- JSON ------------------------------------------------------------ *)

let to_json t =
  let ms = by_name t in
  let field_list f =
    String.concat "," (List.filter_map f ms)
  in
  let counters =
    field_list (function
      | Counter c -> Some (Printf.sprintf "%s:%d" (Json.quote c.c_name) c.c_v)
      | _ -> None)
  in
  let gauges =
    field_list (function
      | Gauge g ->
        Some (Printf.sprintf "%s:%s" (Json.quote g.g_name) (Json.float_lit g.g_v))
      | _ -> None)
  in
  let histograms =
    field_list (function
      | Histogram h ->
        let buckets =
          String.concat ","
            (List.mapi
               (fun i le ->
                 Printf.sprintf "{\"le\":%s,\"count\":%d}" (Json.float_lit le)
                   h.h_counts.(i))
               (Array.to_list h.h_buckets)
            @ [ Printf.sprintf "{\"le\":\"+Inf\",\"count\":%d}"
                  h.h_counts.(Array.length h.h_buckets) ])
        in
        Some
          (Printf.sprintf "%s:{\"buckets\":[%s],\"sum\":%s,\"count\":%d}"
             (Json.quote h.h_name) buckets (Json.float_lit h.h_sum) h.h_count)
      | _ -> None)
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    counters gauges histograms

(* --- Prometheus text ------------------------------------------------- *)

let base_name n =
  match String.index_opt n '{' with
  | Some i -> String.sub n 0 i
  | None -> n

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let to_prometheus_text t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  (* Sort by (family, name): deterministic output, and every sample of a
     family stays contiguous under its single # HELP/# TYPE header. *)
  let ms =
    List.sort
      (fun a b ->
        let na = metric_name a and nb = metric_name b in
        match compare (base_name na) (base_name nb) with
        | 0 -> compare na nb
        | c -> c)
      (in_order t)
  in
  let header name help kind =
    let base = base_name name in
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.add typed base ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (function
      | Counter c ->
        header c.c_name c.c_help "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" c.c_name c.c_v)
      | Gauge g ->
        header g.g_name g.g_help "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" g.g_name (prom_float g.g_v))
      | Histogram h ->
        header h.h_name h.h_help "histogram";
        let cumulative = ref 0 in
        Array.iteri
          (fun i le ->
            cumulative := !cumulative + h.h_counts.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name
                 (prom_float le) !cumulative))
          h.h_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name h.h_count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" h.h_name (prom_float h.h_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" h.h_name h.h_count))
    ms;
  Buffer.contents buf
