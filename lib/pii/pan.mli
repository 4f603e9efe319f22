(** Prefix-preserving IP address anonymization (Crypto-PAn style; Xu et
    al., ICNP 2002).

    Two addresses sharing a p-bit prefix map to addresses sharing exactly
    a p-bit prefix, so subnet structure survives anonymization while the
    actual address values do not. The bit-flip function is a keyed
    SplitMix-based PRF rather than AES — the functional property ConfMask's
    PII add-on needs is prefix preservation, not cryptographic strength
    (see DESIGN.md substitutions). *)

open Netcore

type key

val key_of_int : int -> key
(** Derive a key from a small integer (pre-mixed so consecutive ints give
    unrelated keys). The effective key space is the int argument's, so a
    brute-force replay of {!addr} over a seed range recovers it (see
    [Redteam.Addrs]): this is the red team's model of the legacy key
    space and a convenience for tests, never a product key. Its output
    is a full-width key, so [key_of_string (key_to_string (key_of_int n))]
    reproduces it. *)

val key_of_string : string -> (key, string) result
(** Parse a key from exactly 16 hex digits, with or without a [0x]
    prefix ("0xdeadbeefcafef00d"). All 64 bits are used. This is the only
    way a product surface obtains a key; decimal strings and shorter hex
    strings are [Error]s, so an old small-int key cannot silently become
    a key with a tiny search space. *)

val key_to_string : key -> string
(** Canonical hex form ["0x%016x"]; [key_of_string] round-trips it. *)

val key_equal : key -> key -> bool

val addr : key -> Ipv4.t -> Ipv4.t
(** Anonymize one address. Deterministic per key; a bijection on the
    address space. *)

val prefix : key -> Prefix.t -> Prefix.t
(** Anonymize a prefix: the network bits are mapped with {!addr} and the
    length kept, so [mem a p] implies [mem (addr k a) (prefix k p)]. *)
