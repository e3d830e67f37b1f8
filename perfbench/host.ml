let read_file path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

let lines path = String.split_on_char '\n' (read_file path)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let status_field name =
  let prefix = name ^ ":" in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        match words (String.sub l (String.length prefix)
                       (String.length l - String.length prefix)
                     |> String.map (function '\t' -> ' ' | c -> c)) with
        | v :: _ -> int_of_string_opt v
        | [] -> None
      else None)
    (lines "/proc/self/status")
  |> Option.value ~default:0

let status_kb = status_field
let threads () = status_field "Threads"

let steal_ticks () =
  match List.find_opt (String.starts_with ~prefix:"cpu ") (lines "/proc/stat") with
  | Some l -> (
    match List.nth_opt (words l) 8 with
    | Some v -> Option.value ~default:0 (int_of_string_opt v)
    | None -> 0)
  | None -> 0

(* Field 10 of /proc/self/stat; the command name before it is
   parenthesised and may hold spaces, so count from the closing paren. *)
let minor_faults () =
  let s = read_file "/proc/self/stat" in
  match String.rindex_opt s ')' with
  | None -> 0
  | Some i -> (
    let rest = words (String.sub s (i + 1) (String.length s - i - 1)) in
    match List.nth_opt rest 7 with
    | Some v -> Option.value ~default:0 (int_of_string_opt v)
    | None -> 0)

(* The checkout the benchmark runs in may not be a git repository; an
   absent or unreadable .git reads as "unknown". *)
let git_rev () =
  let head = String.trim (read_file ".git/HEAD") in
  let rev =
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> String.trim (read_file (Filename.concat ".git" r))
    | _ -> head
  in
  if rev = "" then "unknown" else rev

let quote s = "\"" ^ String.escaped s ^ "\""

let context ~steal0 =
  let load1 =
    match words (read_file "/proc/loadavg") with
    | l :: _ -> Option.value ~default:(-1.) (float_of_string_opt l)
    | [] -> -1.
  in
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", quote Sys.ocaml_version);
    ("git_rev", quote (git_rev ()));
    ("ocamlrunparam",
     quote (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
    ("loadavg_1m", Printf.sprintf "%.2f" load1);
    ("steal_ticks", string_of_int (steal_ticks () - steal0)) ]
