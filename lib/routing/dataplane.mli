(** Data-plane extraction: host-to-host paths by hop-by-hop FIB walks.

    The data plane [DP] of ConfMask §3.1 is the collection of all
    host-to-host routing paths. We enumerate them by walking the FIBs
    (ECMP produces a branching DAG), enforcing interface packet filters
    (access groups) at every hop, and reporting delivered paths plus any
    dropped (no route), filtered (ACL deny — a black hole in the Appendix
    B sense), or looping walks. *)

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
    unknown. Builds its per-router interface/adjacency index once per
    call and probes FIBs with {!Fib.lookup}; callers tracing many pairs
    should use {!extract}, which shares the compiled tables across all
    pairs and traces one pair per forwarding-equivalence class. *)

type t = (string * string, trace) Hashtbl.t
(** The full data plane, keyed by (source host, destination host). *)

val extract :
  ?max_paths:int -> compiled:Compiled.t -> Device.network -> Fib.t Smap.t -> t
(** Traces for every ordered pair of distinct hosts, each equal to what
    {!traceroute} returns for that pair. Hosts are grouped into
    forwarding-equivalence classes; one representative pair per ordered
    class pair is traced on the precompiled interface/arrival tables and
    one {!Fib.probe} per router (with a per-destination suffix memo when
    the network has no packet filters) and its trace renamed onto the
    class's other pairs. [compiled] must be the network's compiled
    form. {!Simulate.dataplane} memoizes the result per snapshot and
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
