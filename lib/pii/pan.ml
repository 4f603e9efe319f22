open Netcore

type key = int64

let key_of_int n =
  (* Pre-mix so small consecutive integers give unrelated keys. *)
  let r = Rng.create n in
  Rng.int64 r

let key_equal = Int64.equal
let key_to_string k = Printf.sprintf "0x%016Lx" k

let is_hex_digit c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Keys arrive as hex strings because a 64-bit value neither fits an
   OCaml int on all platforms nor survives a JSON number (floats hold 53
   mantissa bits). Exactly 16 digits: a shorter string would silently
   become a key with a brute-forceable number of leading zero bits. *)
let key_of_string s =
  let s =
    if String.length s >= 2 && (String.sub s 0 2 = "0x" || String.sub s 0 2 = "0X")
    then String.sub s 2 (String.length s - 2)
    else s
  in
  if String.length s <> 16 then Error "key must be exactly 16 hex digits"
  else if not (String.for_all is_hex_digit s) then
    Error (Printf.sprintf "invalid hex digit in key '%s'" s)
  else
    (* Int64.of_string "0x..." parses the full unsigned 64-bit range. *)
    Ok (Int64.of_string ("0x" ^ s))

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

(* The canonical prefix-preserving construction: output bit i is input bit
   i XOR f(key, input bits 0..i-1). Depending only on the preceding bits
   makes the map a bijection and prefix-preserving. *)
let addr key a =
  let v = Ipv4.to_int a in
  let out = ref 0 in
  for i = 0 to 31 do
    let bit = (v lsr (31 - i)) land 1 in
    let prefix_bits = if i = 0 then 0 else v lsr (32 - i) in
    let pad = Int64.add (Int64.of_int prefix_bits) (Int64.of_int (i lsl 40)) in
    let flip = Int64.to_int (mix (Int64.logxor key pad)) land 1 in
    out := (!out lsl 1) lor (bit lxor flip)
  done;
  Ipv4.of_int !out

let prefix key p =
  Prefix.v (addr key (Prefix.network p)) (Prefix.length p)
