type entry = { kernel : string; pc : int; loc : string; sass : string }

type t = {
  by_key : (string * int, int) Hashtbl.t;
  by_index : (int, entry) Hashtbl.t;
  mutable next : int;
}

let create () =
  { by_key = Hashtbl.create 256; by_index = Hashtbl.create 256; next = 0 }

let intern t e =
  let key = (e.kernel, e.pc) in
  match Hashtbl.find_opt t.by_key key with
  | Some idx -> idx
  | None ->
    let idx = t.next land Fpx_tool.Exce.max_loc in
    t.next <- t.next + 1;
    Hashtbl.replace t.by_key key idx;
    Hashtbl.replace t.by_index idx e;
    idx

let entry t idx =
  match Hashtbl.find_opt t.by_index idx with
  | Some e -> e
  | None -> raise Not_found

let size t = Hashtbl.length t.by_index

let entries t =
  Hashtbl.fold (fun idx e acc -> (idx, e) :: acc) t.by_index []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let merge a b =
  let t = create () in
  List.iter (fun e -> ignore (intern t e : int)) (entries a);
  List.iter (fun e -> ignore (intern t e : int)) (entries b);
  t
