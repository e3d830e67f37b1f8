module J = Fpx_serve.Json

let read path = J.parse (In_channel.with_open_text path In_channel.input_all)

let entries path section =
  match J.member section (read path) with
  | Some (J.List es) -> es
  | _ -> failwith (Printf.sprintf "%s: no %s list" path section)

let field path k e =
  match J.str_field k e with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: an entry has no %s" path k)

let workloads ?(path = "BENCHMARK.json") () =
  List.map (field path "name") (entries path "workloads")

let metrics ?(path = "BENCHMARK.json") section =
  List.map (fun e -> (field path "name" e, field path "unit" e)) (entries path section)
