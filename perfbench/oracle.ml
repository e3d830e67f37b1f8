type t = (string, string) Hashtbl.t

let load path =
  let t = Hashtbl.create 512 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | kind :: d :: (_ :: _ as key) ->
               Hashtbl.replace t (kind ^ " " ^ String.concat " " key) d
             | _ -> ()));
  t

let digest s = Digest.to_hex (Digest.string s)
let expected t ~kind ~key = Hashtbl.find_opt t (kind ^ " " ^ key)
let line ~kind ~key output = Printf.sprintf "%s %s %s" kind (digest output) key

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record ?(ops = 1) tl t ~kind ~key output =
  tl.attempted <- tl.attempted + ops;
  let ok =
    match (output, expected t ~kind ~key) with
    | Some out, Some d -> String.equal (digest out) d
    | _ -> false
  in
  if not ok then tl.failed <- tl.failed + ops

let fail_frac tl =
  if tl.attempted = 0 then 0.
  else float_of_int tl.failed /. float_of_int tl.attempted
