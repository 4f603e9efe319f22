(** IPv4 prefixes (CIDR blocks) and a fresh-prefix allocator.

    A prefix is stored in canonical form: all bits below the prefix length
    are zero, so structural equality coincides with semantic equality. *)

type t = private { network : Ipv4.t; len : int }

val v : Ipv4.t -> int -> t
(** [v addr len] is the prefix [addr/len], canonicalized by masking the host
    bits of [addr]. Raises [Invalid_argument] if [len] is outside [0, 32]. *)

val of_string : string -> (t, string) result
(** [of_string "10.0.0.0/24"] parses CIDR notation. A bare address parses as
    a /32. *)

val of_string_exn : string -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val network : t -> Ipv4.t
val length : t -> int
val netmask : t -> Ipv4.t
val wildcard : t -> Ipv4.t
(** Cisco-style inverted mask, e.g. [0.0.0.255] for a /24. *)

val size : t -> int
(** Number of addresses covered. *)

val mem : Ipv4.t -> t -> bool
val subset : sub:t -> super:t -> bool
val overlaps : t -> t -> bool

val host : t -> int -> Ipv4.t
(** [host p i] is the [i]-th address inside [p] (0 is the network address). *)

val compare : t -> t -> int
val equal : t -> t -> bool

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** {1 Fresh prefix allocation}

    The anonymizer must mint IP prefixes that do not collide with anything
    in the original network (ConfMask §5.3). The allocator hands out
    subprefixes of a base pool, skipping a caller-supplied avoid set. *)

type alloc

exception
  Pool_exhausted of {
    pool : t;  (** The base pool that ran out. *)
    requested_len : int;  (** The prefix length being allocated. *)
    cursor : int;  (** Allocator cursor (address offset) at exhaustion. *)
    probes : int;  (** Candidates examined over the allocator's lifetime. *)
  }
(** Raised by {!alloc_fresh} when no free /[len] remains. Carries the
    allocation context ([Printexc.to_string] renders it readably) so an
    exhausted run can report what it was asking for and how far the
    cursor had advanced. *)

val default_base : t
(** [100.64.0.0/10], the CGNAT range, which never appears in generated
    networks: the pool {!alloc_create} allocates from by default. *)

val alloc_create : ?base:t -> avoid:t list -> unit -> alloc
(** [alloc_create ~avoid ()] allocates from [base] (default
    {!default_base}). *)

val alloc_fresh : alloc -> len:int -> t
(** [alloc_fresh a ~len] returns a fresh /[len] disjoint from the avoid set
    and from everything previously returned. Raises {!Pool_exhausted} if
    the pool has run out — in O(1) probes even when huge avoided ranges
    cover it, via the cursor jump — and [Invalid_argument] when [len] is
    shorter than the pool's own length. *)

val alloc_used : alloc -> t list
(** All prefixes handed out so far, most recent first. *)

val alloc_probes : alloc -> int
(** Number of candidate prefixes examined over the allocator's lifetime.
    Each allocation probes at most once per distinct clashing range plus
    one successful candidate — the cursor jumps past a clashing range
    rather than stepping through it, and never revisits it. *)
