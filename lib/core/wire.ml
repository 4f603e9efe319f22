open Netcore

type error =
  | Missing_field of string
  | Unknown_field of string
  | Wrong_type of string * string
  | Out_of_range of string
  | Bad_value of string * string
  | Unknown_tenant of string

let error_message = function
  | Missing_field f -> Printf.sprintf "missing field '%s'" f
  | Unknown_field f -> Printf.sprintf "unknown field '%s'" f
  | Wrong_type (f, want) -> Printf.sprintf "field '%s' must be %s" f want
  | Out_of_range f -> Printf.sprintf "field '%s' is beyond 1e15 in size" f
  | Bad_value (f, m) -> Printf.sprintf "field '%s': %s" f m
  | Unknown_tenant t -> Printf.sprintf "unknown tenant '%s'" t

exception Reject of error

let reject e = raise (Reject e)

let typed want read name v =
  match read v with Some x -> x | None -> reject (Wrong_type (name, want))

let str = typed "a string" Json.str
let num = typed "a number" Json.num
let bool = typed "a boolean" Json.bool

let strings =
  typed "an array of strings" (function
    | Json.Arr l when List.for_all (fun v -> Json.str v <> None) l ->
        Some (List.filter_map Json.str l)
    | _ -> None)

let int name v =
  match (v, Json.int v) with
  | _, Some n -> n
  | Json.Num f, None when Float.is_integer f -> reject (Out_of_range name)
  | _ -> reject (Wrong_type (name, "an integer"))

let parsed of_string name v =
  match of_string (str name v) with
  | Ok x -> x
  | Error m -> reject (Bad_value (name, m))

let key = parsed Pii.Pan.key_of_string

type 'r row = string * (Json.t -> 'r -> 'r)

let field name read set : 'r row = (name, fun v r -> set r (read name v))

let decode ?(required = []) fields blank v =
  let members = match v with Json.Obj m -> m | _ -> [] in
  (* Right to left, so that of duplicate keys the first wins, as under
     [Json.member]; ["op"] was read by the dispatcher. *)
  let r =
    List.fold_right
      (fun (name, v) r ->
        match List.assoc_opt name fields with
        | Some dec -> dec v r
        | None when name = "op" -> r
        | None -> reject (Unknown_field name))
      members blank
  in
  List.iter (fun f -> if not (List.mem_assoc f members) then reject (Missing_field f)) required;
  r

let decoding f = try Ok (f ()) with Reject e -> Error e

let resolve ~tenants ~tenant key =
  match Option.map (fun t -> (t, List.assoc_opt t tenants)) tenant with
  | None -> key
  | Some (_, (Some _ as k)) -> k
  | Some (t, None) -> reject (Unknown_tenant t)
