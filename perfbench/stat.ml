(* Order statistics shared by every workload and by the ledger. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank: the [p]-th percentile of [n] samples is the sample of
   1-based rank ceil(p * n / 100). *)
let rank ~n p = max 1 ((p * n + 99) / 100)

let tail_percentile n =
  let rec go p =
    if p < 50 then None else if n - rank ~n p >= 10 then Some p else go (p - 1)
  in
  go 99

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  match tail_percentile n with
  | Some p -> (p, a.(rank ~n p - 1))
  | None -> invalid_arg "Stat.tail: fewer than 20 samples"

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
