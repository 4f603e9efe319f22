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

(** {1 The plane}

    Extraction groups hosts into forwarding-equivalence classes (FEC
    classes): hosts that every walk, as source or destination, treats
    alike up to the host names at a path's two ends. A plane keeps that
    structure and nothing fanned out from it:

    - each host's class;
    - one representative pair per ordered class pair, with its trace;
    - the same-subnet rule: two hosts on one subnet reach each other
      directly ([[[src; dst]]]), whatever their classes.

    Per-pair access ({!trace}, {!paths}, {!fold}, {!all_delivered}) is a
    view: a member pair's trace is its class pair's representative trace
    with the two endpoints renamed, built when it is read. Every view
    equals what {!traceroute} returns for the pair.

    Memo contract: a plane is immutable once built. {!Simulate.dataplane}
    memoizes one plane per snapshot and hands the same value to every
    caller and every domain. The view caches nothing: each read of a
    non-representative pair allocates its renamed trace again, so a
    consumer that reads many pairs should read per class
    ({!pair_class}, {!class_traces}) where the answer allows it. *)

type t

type pair_class =
  | Same_subnet  (** the pair short-circuits *)
  | Classes of int * int  (** the source's and the destination's class *)
(** Pairs with equal [pair_class] in a plane have the same trace up to
    renaming their endpoints. Class numbers are local to one plane. *)

val extract :
  ?max_paths:int -> ?hosts:string list -> Device.network -> Fib.t Smap.t -> t
(** The plane of every ordered pair of distinct hosts. [hosts] limits
    sources and destinations to the network's hosts it names (default:
    every host); each pair's view is still {!traceroute}'s trace for it.
    One representative pair per ordered class pair is traced, on the
    network's interface/arrival tables ({!Device.find_iface},
    {!Device.arrival_iface}) and {!Fib.probe_lpm} on each host's
    prepared {!Fib.dest}, with a per-destination suffix memo when the
    network has no packet filters. Hosts are classified by the body each
    router's FIB matches for them, interned once per body.
    Counts [fec.classes], [fec.traced] (representatives) and
    [fec.collapsed] (the other pairs that do not short-circuit). *)

val trace : t -> src:string -> dst:string -> trace option
(** The pair's trace; [None] when [src = dst] or the plane does not
    cover both hosts. A representative pair reads its stored trace; any
    other pair gets the representative's, renamed. *)

val representative : t -> src:string -> dst:string -> trace option
(** The stored trace of the pair's class pair, endpoints as traced for
    its representative (the pair's own shortcut for a same-subnet pair):
    [trace] is this trace with [src] and [dst] renamed in. *)

val pair_class : t -> src:string -> dst:string -> pair_class option
(** [None] when [src = dst] or the plane does not cover both hosts. *)

val class_traces : t -> trace list
(** The stored representative traces, one per ordered class pair that
    has one. Every delivered path of a member pair has the router
    interior of one of these. *)

val hosts : t -> string list
(** The hosts the plane covers, sorted. *)

val fold : ((string * string) -> trace -> 'a -> 'a) -> t -> 'a -> 'a
(** Every pair with a trace, source-major in sorted host order. *)

val of_traces : ((string * string) * trace) list -> t
(** A plane of exactly the given pair traces: every host its own class,
    no same-subnet rule, the last binding of a pair wins. The fanned-out
    form, for the naive reference and for fabricated planes. *)

val paths : t -> src:string -> dst:string -> path list

val all_delivered : t -> ((string * string) * path list) list
(** Pairs sorted lexicographically; only pairs with at least one path. *)

val equal_on :
  hosts:string list -> t -> t -> bool
(** Whether two data planes have identical delivered path sets for every
    ordered pair of the given hosts — the route-equivalence check of
    Definition 3.3 restricted to real hosts. Compares one pair per group
    of pairs that share their {!pair_class} in both planes. *)
