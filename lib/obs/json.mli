(** The tree's one JSON codec: a value type, a parser, a renderer, and
    the string/number literal helpers that hand-written emitters use.

    Every JSON artifact is written through {!escape} / {!quote} (or
    {!to_string}), and every JSON reader — the serve protocol, the
    campaign result store — goes through {!parse}. A plain
    recursive-descent parser over objects, arrays, strings (standard
    escapes; [\uXXXX] decoded to UTF-8, surrogate pairs joined, a lone
    surrogate read as U+FFFD), doubles, booleans and null, with no
    dependency outside the stdlib. Strings are byte strings: bytes at or
    above 0x80 pass through both directions untouched, so
    [parse (quote s) = Str s] for every [s]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val to_string : t -> string
(** Compact deterministic rendering (object fields in the given order;
    integral floats below 1e15 render without a fraction, other numbers
    as {!float_lit}). [parse (to_string v) = v] for every [v] whose
    numbers are finite. *)

(** {1 Literals for hand-written emitters} *)

val escape : string -> string
(** Escape for inclusion inside a JSON string literal: quotes,
    backslashes, and all control characters (named escapes for
    [\n \t \r \b \f], [\uXXXX] otherwise). Total over all bytes. *)

val quote : string -> string
(** [quote s] is [escape s] wrapped in double quotes. *)

val float_lit : float -> string
(** A valid JSON number for [v]: finite floats render as shortest
    round-trip decimals; NaN and infinities (not representable in JSON)
    render as quoted strings. *)

(** {1 Accessors} — [None] on missing field or wrong shape. *)

val member : string -> t -> t option
(** Field lookup; [None] unless the value is an [Obj] with the field. *)

val str_field : string -> t -> string option
val int_field : string -> t -> int option
(** An integral number of magnitude at most 2{^53}. *)

val bool_field : string -> t -> bool option
