(** The one decoder of serve request fields. Each op declares one table
    of rows; {!decode} folds a request's members through it. A field the
    table does not name, except ["op"], is rejected; of duplicate keys
    the first wins. Every rejection is an {!error} naming the field. *)

type error =
  | Missing_field of string
  | Unknown_field of string
  | Wrong_type of string * string  (** field, what it must be *)
  | Out_of_range of string  (** integral, beyond {!Netcore.Json.int} *)
  | Bad_value of string * string  (** field, why: a bad key or source *)
  | Unknown_tenant of string

val error_message : error -> string

exception Reject of error

val reject : error -> 'a

(** Readers take the field name, for their error, then the value.
    [parsed of_string] reads a string, then [of_string]; [key] reads 16
    hex digits in a string, since a JSON number cannot carry 64 bits. *)

val str : string -> Netcore.Json.t -> string
val num : string -> Netcore.Json.t -> float
val bool : string -> Netcore.Json.t -> bool
val int : string -> Netcore.Json.t -> int
val strings : string -> Netcore.Json.t -> string list
val parsed : (string -> ('a, string) result) -> string -> Netcore.Json.t -> 'a
val key : string -> Netcore.Json.t -> Pii.Pan.key

type 'r row = string * (Netcore.Json.t -> 'r -> 'r)

val field : string -> (string -> Netcore.Json.t -> 'a) -> ('r -> 'a -> 'r) -> 'r row
(** [field name read set] reads [name]'s value into a request. *)

val decode : ?required:string list -> 'r row list -> 'r -> Netcore.Json.t -> 'r
(** [decode ~required rows blank v] sets each member of [v] into [blank],
    then checks that every [required] field is present. Raises
    {!Reject}; [decoding] catches it. *)

val decoding : (unit -> 'a) -> ('a, error) result

val resolve :
  tenants:(string * Pii.Pan.key) list -> tenant:string option ->
  Pii.Pan.key option -> Pii.Pan.key option
(** A request's key: its [tenant]'s, which wins, else its own. *)
