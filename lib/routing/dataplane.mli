(** Data-plane extraction: host-to-host paths by hop-by-hop FIB walks.

    The data plane [DP] of ConfMask §3.1 is the collection of all
    host-to-host routing paths. We enumerate them by walking the FIBs
    (ECMP produces a branching DAG), enforcing interface packet filters
    (access groups) at every hop, and reporting delivered paths plus any
    dropped (no route), filtered (ACL deny — a black hole in the Appendix
    B sense), or looping walks. Walks read the next-hop order of the
    FIBs and the interface and arrival tables {!Device.compile} builds
    into the network; {!traceroute} scans the lists those tables are
    specified by instead, and is the naive reference. *)

module Smap = Device.Smap

type path = string list
(** [ [h_s; r_1; ...; r_n; h_d] ] *)

type trace = {
  delivered : path list;  (** sorted, deduplicated *)
  dropped : path list;  (** partial walks ending where no route exists *)
  filtered : path list;  (** partial walks stopped by an access list *)
  looped : path list;  (** partial walks that revisited a router *)
  truncated : bool;  (** enumeration hit the path cap *)
}

val max_paths_default : int

val traceroute :
  ?max_paths:int ->
  Device.network ->
  Fib.t Smap.t ->
  src:string ->
  dst:string ->
  trace
(** All forwarding paths from host [src] to host [dst], for packets with
    the hosts' addresses. Raises [Invalid_argument] if either host is
    unknown. The naive form of a walk: each hop scans the router's
    interfaces and adjacency row with [List.find_opt] and asks its FIB
    with {!Fib.lookup}, so it does not read the network's lookup tables
    and can serve as their reference; callers tracing many pairs should
    use {!extract}, which walks on those tables and traces one pair per
    forwarding-equivalence class. *)

type t = (string * string, trace) Hashtbl.t
(** The full data plane, keyed by (source host, destination host). *)

val extract :
  ?max_paths:int -> ?hosts:string list -> Device.network -> Fib.t Smap.t -> t
(** Traces for every ordered pair of distinct hosts, each equal to what
    {!traceroute} returns for that pair. [hosts] limits sources and
    destinations to the network's hosts it names (default: every host);
    each trace is still {!traceroute}'s for its pair. Hosts are grouped into
    forwarding-equivalence classes; one representative pair per ordered
    class pair is traced on the network's interface/arrival tables
    ({!Device.find_iface}, {!Device.arrival_iface}) and one {!Fib.probe}
    per router (with a per-destination suffix memo when the network has
    no packet filters) and its trace renamed onto the class's other
    pairs. {!Simulate.dataplane} memoizes the result per snapshot and
    hands the same table to every caller, so consumers of a plane treat
    it as read-only. *)

val paths : t -> src:string -> dst:string -> path list

val all_delivered : t -> ((string * string) * path list) list
(** Pairs sorted lexicographically; only pairs with at least one path. *)

val equal_on :
  hosts:string list -> t -> t -> bool
(** Whether two data planes have identical delivered path sets for every
    ordered pair of the given hosts — the route-equivalence check of
    Definition 3.3 restricted to real hosts. *)
