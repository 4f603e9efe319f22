(** Minimal zero-dependency JSON (RFC 8259): the one printer and parser
    behind every document the system writes — the serve protocol, batch
    records and manifests, telemetry reports, verification and red-team
    records.

    One value type, a total recursive-descent parser, and a compact
    printer. Numbers are floats (every integer the system carries fits a
    double exactly); object member order is preserved; duplicate keys
    keep their first occurrence under {!member}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse: leading/trailing whitespace allowed, anything
    else after the value is an error. Never raises. *)

val to_string : t -> string
(** Compact single-line rendering (no added whitespace), suitable for
    the line-delimited wire protocol. Strings escape the double quote,
    the backslash and every control character. An integral number below
    1e15 in magnitude prints without a fraction ([3]); any other number
    prints in the shortest [%.15g]/[%.16g]/[%.17g] form that parses back
    to the same float ([0.667], not [0.66666666666666663]). Printing is
    canonical: when every number of [v] is finite, [parse (to_string v)]
    prints back to the same bytes. *)

val round3 : t -> t
(** Every number rounded to three decimals, as
    [float_of_string (Printf.sprintf "%.3f" x)] — the precision of batch
    records, which then print as e.g. [0.667]. Integers are unchanged. *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** {!num} rounded; [None] when not within integer range. *)

val bool : t -> bool option
