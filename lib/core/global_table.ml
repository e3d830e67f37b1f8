(* [slots] backs only the prefix up to the highest index set so far:
   loc indices are dense from 0, so a run touches a few hundred bytes of
   the {!Fpx_tool.Exce.table_slots}-slot table. Slots past the backing
   are empty. *)
type t = { mutable slots : Bytes.t; mutable cardinal : int }

let create () = { slots = Bytes.empty; cardinal = 0 }

let check idx =
  if idx < 0 || idx >= Fpx_tool.Exce.table_slots then
    invalid_arg "index out of bounds"

(* Back slot [idx] (in range), doubling so repeated growth stays O(n). *)
let grow t idx =
  let old = Bytes.length t.slots in
  let len = min Fpx_tool.Exce.table_slots (max (idx + 1) (2 * old)) in
  let slots = Bytes.extend t.slots 0 (len - old) in
  Bytes.fill slots old (len - old) '\000';
  t.slots <- slots

let test_and_set t idx =
  check idx;
  if idx >= Bytes.length t.slots then grow t idx;
  if Bytes.get t.slots idx = '\000' then begin
    Bytes.set t.slots idx '\001';
    t.cardinal <- t.cardinal + 1;
    true
  end
  else false

let mem t idx =
  check idx;
  idx < Bytes.length t.slots && Bytes.get t.slots idx <> '\000'

let reset t idx =
  check idx;
  if idx < Bytes.length t.slots && Bytes.get t.slots idx <> '\000' then begin
    Bytes.set t.slots idx '\000';
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let clear t =
  Bytes.fill t.slots 0 (Bytes.length t.slots) '\000';
  t.cardinal <- 0

let iter_set t f =
  for idx = 0 to Bytes.length t.slots - 1 do
    if Bytes.get t.slots idx <> '\000' then f idx
  done

let merge a b =
  let la = Bytes.length a.slots and lb = Bytes.length b.slots in
  let t = { slots = Bytes.make (max la lb) '\000'; cardinal = 0 } in
  for idx = 0 to Bytes.length t.slots - 1 do
    if (idx < la && Bytes.get a.slots idx <> '\000')
       || (idx < lb && Bytes.get b.slots idx <> '\000')
    then begin
      Bytes.set t.slots idx '\001';
      t.cardinal <- t.cardinal + 1
    end
  done;
  t
