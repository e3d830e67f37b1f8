type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* --- parsing ---------------------------------------------------------- *)

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail "expected %C at offset %d, found %C" c st.pos d
  | None -> fail "expected %C at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

(* Exactly four hex digits at offset [i] ([int_of_string] alone would
   also take ['_'] and a sign). *)
let hex4 st i =
  if i + 4 > String.length st.s then fail "truncated \\u escape";
  let hex = String.sub st.s i 4 in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  if not (String.for_all is_hex hex) then fail "invalid \\u escape %S" hex;
  int_of_string ("0x" ^ hex)

(* The scalar value of the [\uXXXX] whose [u] is at [st.pos], joining a
   UTF-16 surrogate pair written as two escapes; leaves [st.pos] past
   it. A lone surrogate, which no scalar value matches, reads as
   U+FFFD. *)
let unicode_escape st =
  let hi = hex4 st (st.pos + 1) in
  st.pos <- st.pos + 5;
  let n = String.length st.s in
  if
    hi >= 0xD800 && hi <= 0xDBFF
    && st.pos + 6 <= n
    && st.s.[st.pos] = '\\'
    && st.s.[st.pos + 1] = 'u'
  then begin
    let lo = hex4 st (st.pos + 2) in
    if lo >= 0xDC00 && lo <= 0xDFFF then begin
      st.pos <- st.pos + 6;
      Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else Uchar.rep
  end
  else if Uchar.is_valid hi then Uchar.of_int hi
  else Uchar.rep

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail "unterminated string"
    else
      match st.s.[st.pos] with
      | '"' -> st.pos <- st.pos + 1
      | '\\' ->
        st.pos <- st.pos + 1;
        (if st.pos >= String.length st.s then fail "unterminated escape"
         else
           match st.s.[st.pos] with
           | '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1
           | '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1
           | '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1
           | 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1
           | 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1
           | 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1
           | 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1
           | 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1
           | 'u' -> Buffer.add_utf_8_uchar buf (unicode_escape st)
           | c -> fail "invalid escape \\%C" c);
        go ()
      | c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail "invalid number %S at offset %d" text start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" st.pos
      in
      fields []
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elems (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" st.pos
      in
      elems []
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected %C at offset %d" c st.pos

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v

(* --- rendering -------------------------------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf s;
  Buffer.contents buf

let quote s = "\"" ^ escape s ^ "\""

let quote_into buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

let float_lit v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else
    let s = Printf.sprintf "%.17g" v in
    (* shortest representation that round-trips *)
    let shorter = Printf.sprintf "%.12g" v in
    if float_of_string shorter = v then shorter else s

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (float_lit f)
  | Str s -> quote_into buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        render buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        quote_into buf k;
        Buffer.add_char buf ':';
        render buf v)
      fs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 64 in
  render buf v;
  Buffer.contents buf

(* --- accessors -------------------------------------------------------- *)

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

let str_field k v =
  match member k v with Some (Str s) -> Some s | _ -> None

let int_field k v =
  match member k v with
  (* beyond 2^53 a double no longer names one integer, and
     [int_of_float] of a huge value is unspecified *)
  | Some (Num f) when Float.is_integer f && Float.abs f <= 0x1p53 ->
    Some (int_of_float f)
  | _ -> None

let bool_field k v =
  match member k v with Some (Bool b) -> Some b | _ -> None
