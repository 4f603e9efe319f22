type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ---- parsing: recursive descent over a cursor ---- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> fail "unexpected end of input at %d" c.pos

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  let got = next c in
  if got <> ch then fail "expected '%c' at %d, got '%c'" ch (c.pos - 1) got

let literal c word value =
  String.iter (fun ch -> expect c ch) word;
  value

(* Encode a Unicode scalar value as UTF-8 into [b]. *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let digit () =
    match next c with
    | '0' .. '9' as ch -> Char.code ch - Char.code '0'
    | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
    | ch -> fail "bad hex digit '%c' at %d" ch (c.pos - 1)
  in
  let a = digit () in
  let b = digit () in
  let d = digit () in
  let e = digit () in
  (((a * 16) + b) * 16 + d) * 16 + e

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match next c with
    | '"' -> Buffer.contents b
    | '\\' ->
        (match next c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> add_utf8 b (hex4 c)
        | ch -> fail "bad escape '\\%c' at %d" ch (c.pos - 1));
        go ()
    | ch -> Buffer.add_char b ch; go ()
  in
  go ()

let parse_number c =
  (* RFC 8259 grammar: no leading zeros, no bare '.', at least one digit
     in every digit run — stricter than [float_of_string]. *)
  let start = c.pos in
  let consume () = c.pos <- c.pos + 1 in
  let digits1 what =
    let d0 = c.pos in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      consume ()
    done;
    if c.pos = d0 then fail "missing %s digits at %d" what c.pos
  in
  (match peek c with Some '-' -> consume () | _ -> ());
  (match peek c with
  | Some '0' -> consume () (* a leading 0 must stand alone *)
  | Some '1' .. '9' -> digits1 "integer"
  | _ -> fail "missing integer digits at %d" c.pos);
  (match peek c with
  | Some '0' .. '9' -> fail "leading zero at %d" start
  | _ -> ());
  (match peek c with
  | Some '.' ->
      consume ();
      digits1 "fraction"
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      consume ();
      (match peek c with Some ('+' | '-') -> consume () | _ -> ());
      digits1 "exponent"
  | _ -> ());
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "bad number '%s' at %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input at %d" c.pos
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then (expect c '}'; Obj [])
      else
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match next c with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | ch -> fail "expected ',' or '}' at %d, got '%c'" (c.pos - 1) ch
        in
        members []
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then (expect c ']'; Arr [])
      else
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match next c with
          | ',' -> elements (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | ch -> fail "expected ',' or ']' at %d, got '%c'" (c.pos - 1) ch
        in
        elements []
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected '%c' at %d" ch c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at %d" c.pos)
  | exception Bad m -> Error m

(* ---- printing ---- *)

let escape b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s

(* The shortest of %.15g, %.16g, %.17g that parses back to [f]; %.17g
   always does. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number f)
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let rec round3 = function
  | Num f -> Num (float_of_string (Printf.sprintf "%.3f" f))
  | Arr xs -> Arr (List.map round3 xs)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, round3 v)) kvs)
  | (Null | Bool _ | Str _) as v -> v

(* ---- accessors ---- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int v =
  match num v with
  | Some f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
