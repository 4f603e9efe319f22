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

type t
(** A FIB, represented canonically: two FIBs holding the same routes are
    structurally equal (and hash, marshal and compare identically) no
    matter what sequence of operations built them. *)

val empty : t

val add_candidate : route -> t -> t
(** Inserts a candidate route, resolving conflicts for the same prefix by
    administrative distance and metric; exact ties merge next hops.
    Persistent: the argument FIB is unchanged. *)

val of_candidates : route list -> t
(** Bulk construction:
    [of_candidates cs = List.fold_left (fun t r -> add_candidate r t) empty cs],
    in one sort-and-merge pass instead of a persistent insert per
    candidate. *)

val fill :
  t ->
  int ->
  key:(int -> Prefix.t) ->
  hit:(int -> bool) ->
  route:(int -> route) ->
  t
(** [fill others n ~key ~hit ~route] adds to [others] the candidate
    [route i] of every [i] in [[0, n)] for which [hit i] holds: it equals
    the {!add_candidate} fold of those candidates into [others], in any
    order. [key i] is the prefix of [route i] and must be strictly
    ascending in [i] ([Invalid_argument] otherwise). A count pass reads
    [key] and [hit] and allocates nothing; the result is then allocated
    at its exact size and filled in ascending prefix order, calling
    [route] once per hit. [hit] must answer the same in both passes.
    Returns [others] itself when nothing hits. *)

val replace : t -> (Prefix.t * route list) list -> t
(** [replace t changes], with [changes] strictly ascending by prefix and
    every candidate of [(p, cs)] for prefix [p], equals [of_candidates
    (rs @ List.concat_map snd changes)] where [rs] are [t]'s routes for
    the prefixes not listed: each listed slot is rebuilt from its
    candidates in order, or dropped when they are [[]], and the rest of
    [t] is copied unchanged. When every rebuilt slot equals [t]'s, the
    result is [t] itself. *)

val changed_prefixes : t -> t -> Prefix.t list
(** The prefixes whose slot differs between two FIBs (held by one only,
    or by both with different routes), ascending. *)

val find : t -> Prefix.t -> route option
(** Exact-prefix lookup. *)

val lookup : t -> Ipv4.t -> route option
(** Longest-prefix-match lookup by direct probing: one binary search per
    prefix length, 33 in the worst case. The reference {!probe_lpm} is
    tested against, and the lookup for callers that ask a FIB once. *)

type probe
(** A longest-prefix-match accelerator over one FIB: prefixes condensed
    to int keys so searches compare unboxed ints, and the sweep limited
    to the prefix lengths the FIB holds. Purely an acceleration
    structure — the FIB itself is unchanged (it is marshaled and
    compared structurally elsewhere). *)

val probe : t -> probe

type dest
(** A destination address prepared for {!probe_lpm}: the key of its
    enclosing prefix at every length, computed once and reused against
    every probed FIB. *)

val dest : Ipv4.t -> dest

val probe_lpm : probe -> dest -> route option
(** Same result as {!lookup} on the probed FIB for the destination's
    address. *)

val routes : t -> route list
(** All routes, sorted by prefix. *)

val nexthop_names : route -> string list
(** Sorted, deduplicated next-hop router names. *)

val pp : Format.formatter -> t -> unit
