(** Forwarding information base.

    One FIB per router, mapping destination prefixes to next-hop sets.
    Routes from different protocols compete by administrative distance,
    then by metric; equal-cost routes of the winning protocol merge their
    next hops (ECMP). *)

open Netcore

type proto = Connected | Static | Ospf | Rip | Eigrp | Ebgp | Ibgp

val admin_distance : proto -> int
(** Cisco defaults: connected 0, static 1, eBGP 20, EIGRP 90, OSPF 110, RIP 120, iBGP 200. *)

val proto_to_string : proto -> string

type nexthop = {
  nh_router : string;  (** adjacent router the packet is forwarded to *)
  nh_iface : string;  (** outgoing interface name on this router *)
}

type route = {
  rt_prefix : Prefix.t;
  rt_proto : proto;
  rt_metric : int;
  rt_nexthops : nexthop list;
      (** empty for connected routes: deliver locally *)
}

type body = { proto : proto; metric : int; nexthops : nexthop list }
(** What a slot holds: a route without its prefix. *)

type t
(** A FIB, dictionary-encoded: the sorted int keys of its prefixes (see
    {!key}), the prefix lengths they hold as one immediate bitmask, one
    int per slot indexing the FIB's distinct bodies, and those bodies in
    order of first occurrence by ascending key. No slot has a heap block
    of its own; a FIB's memory is one word per slot plus its key array,
    which routers with equal key sets share physically (a base FIB
    {!fill}ed over a router's whole table shares the table's), plus its
    distinct bodies.

    The representation is canonical: two FIBs holding the same routes are
    structurally equal (and hash, compare and marshal without sharing
    identically) no matter what sequence of operations built them. With
    sharing on, marshaled bytes also follow which of the candidates'
    structurally equal next hops are physically one value.

    Readers: {!body_index}, {!probe_lpm} and {!body} allocate nothing per
    slot read, and per-body results can be memoized by body index
    ({!map_bodies}). {!find}, {!lookup} and {!routes} build [route]
    views, for cold callers. *)

val empty : t

val key : Prefix.t -> int
(** [network * 33 + len]: ascending keys order prefixes exactly like
    [Prefix.compare]. *)

val add_candidate : route -> t -> t
(** Inserts a candidate route, resolving conflicts for the same prefix by
    administrative distance and metric; exact ties merge next hops.
    Persistent: the argument FIB is unchanged. *)

val add_candidates : route list -> t -> t
(** [add_candidates cs t = List.fold_left (fun t r -> add_candidate r t) t cs],
    in one {!replace}: one copy of [t]'s slots for the whole list, not
    one per candidate. *)

val of_candidates : route list -> t
(** Bulk construction:
    [of_candidates cs = List.fold_left (fun t r -> add_candidate r t) empty cs],
    in one sort-and-merge pass instead of a persistent insert per
    candidate. *)

val fill : t -> int array -> body array -> (int -> int) -> t
(** [fill others keys cands pick] adds to [others], for every [i] in
    [[0, Array.length keys)] with [pick i >= 0], the candidate of the
    prefix keyed [keys.(i)] whose body is [cands.(pick i)]: it equals the
    {!add_candidate} fold of those candidates into [others], in any
    order. [keys] must be strictly ascending ([Invalid_argument]
    otherwise). A count pass reads [pick] and allocates nothing; the
    result is then allocated at its exact size and filled in ascending
    key order, interning each distinct [cands] entry once. When the
    result holds exactly the prefixes of [keys], its key array is [keys]
    itself. [pick] must answer the same in both passes. Returns [others]
    itself when nothing is picked. *)

val replace : t -> keys:int array -> (Prefix.t * body list) list -> t
(** [replace t changes], with [changes] strictly ascending by prefix and
    [cs] the candidate bodies of prefix [p] for each [(p, cs)], equals
    [of_candidates] of [t]'s routes for the prefixes not listed plus
    every listed candidate: each listed slot is rebuilt from its
    candidates in order, or dropped when they are [[]], and the rest of
    [t] is copied as ints. When every rebuilt slot equals [t]'s, the
    result is [t] itself; when no slot is added or dropped, the result
    shares [t]'s key array; otherwise, when it holds exactly the sorted
    [keys] (a state's table, as {!fill} takes), it shares [keys]. *)

val changed_prefixes : t -> t -> Prefix.t list
(** The prefixes whose slot differs between two FIBs (held by one only,
    or by both with different routes), ascending. *)

val body_index : t -> Prefix.t -> int
(** Exact-prefix lookup: the index of the prefix's body, or -1. *)

val body : t -> int -> body
(** [body t i] is [t]'s [i]th distinct body, shared by every slot that
    holds it. *)

val map_bodies : (body -> 'a) -> t -> 'a array
(** [map_bodies f t] applies [f] once per distinct body, indexed like
    {!body}: a per-body memo for readers of many slots. *)

val find : t -> Prefix.t -> route option
(** Exact-prefix lookup, as a route view. *)

val lookup : t -> Ipv4.t -> route option
(** Longest-prefix-match lookup by direct probing: one binary search per
    prefix length the FIB holds, most specific first, with boxed
    prefixes. The reference {!probe_lpm} is tested against, and the
    lookup for callers that ask a FIB once. *)

type dest
(** A destination address prepared for {!probe_lpm}: the key of its
    enclosing prefix at every length, computed once and reused against
    every probed FIB. *)

val dest : Ipv4.t -> dest

val probe_lpm : t -> dest -> int
(** The index of the body that {!lookup} matches for the destination's
    address, or -1: a binary search over unboxed int keys at each length
    the FIB holds. Allocates nothing. *)

val routes : t -> route list
(** All routes, sorted by prefix. *)

val nexthop_names : nexthop list -> string list
(** Sorted, deduplicated next-hop router names. *)

val pp : Format.formatter -> t -> unit
