(** End-to-end control-plane simulation (the Batfish substitute).

    Compiles configurations, runs the protocol engines — one IGP domain
    per AS when BGP is present, a single domain otherwise — merges
    candidate routes into per-router FIBs by administrative distance, and
    exposes the data plane. Compilation is {!Device.compile}'s alone:
    the network a snapshot holds carries the lookup tables its data
    plane is walked on, so a snapshot is a network, its FIBs and the
    memo of their data plane.

    This is the from-scratch reference path; [Routing.Engine] layers
    incremental recomputation on top of the same building blocks and is
    property-tested equivalent to it. Independent IGP domains and
    per-prefix SPF runs execute in parallel through [Netcore.Pool]
    (parallelism never changes results). *)

module Smap = Device.Smap

type plane
(** A snapshot's compute-once data-plane cell, filled by {!dataplane}. *)

type snapshot = private {
  net : Device.network;
  fibs : Fib.t Smap.t;
  plane : plane;
}
(** Private so that every snapshot comes from {!make_snapshot} with an
    empty plane cell: no copy with other FIBs can carry a stale plane.
    The lookup tables extraction walks on are part of [net]. *)

val make_snapshot : net:Device.network -> fibs:Fib.t Smap.t -> snapshot

val run :
  ?pool:Netcore.Pool.t ->
  Configlang.Ast.config list ->
  (snapshot, string) result

val run_exn : ?pool:Netcore.Pool.t -> Configlang.Ast.config list -> snapshot

val run_net : ?pool:Netcore.Pool.t -> Device.network -> Fib.t Smap.t
(** Protocol computation only, for callers that already compiled. *)

val dataplane : ?max_paths:int -> snapshot -> Dataplane.t
(** The snapshot's data plane ({!Dataplane.extract}), extracted on the
    first call and returned as the same table after that, from any
    domain. The table is shared by every caller and must be treated as
    read-only; copy it ([Hashtbl.copy]) before changing it. An explicit
    [max_paths] bypasses the memo and extracts a fresh table. *)

val dataplane_on : hosts:string list -> snapshot -> Dataplane.t
(** A data plane that holds at least the pairs among [hosts]: the
    snapshot's memoized plane when {!dataplane} has already extracted
    it, and otherwise [Dataplane.extract ~hosts], which is not memoized.
    Read only the pairs among [hosts]. *)

val host_routes : snapshot -> (string * Netcore.Prefix.t * string list) list
(** Flattened FIB view [(router, host prefix, sorted next-hop routers)],
    restricted to destinations that are host subnets — the
    [⟨r, h_d, nxt⟩ ∈ DP] triples iterated by Algorithm 1. *)

val host_prefixes : Device.network -> (Netcore.Prefix.t * string) list
(** [(subnet, host name)] for every host. *)

(** {1 Building blocks shared with the incremental engine} *)

val local_candidates : Device.network -> Device.router -> Fib.route list
(** A router's connected routes, then its static routes whose next hop
    resolves over a connected subnet. *)

val base_fib : local:Fib.route list -> Fib.route list -> Fib.t
(** [base_fib ~local igp] is a router's FIB before BGP:
    [Fib.add_sorted_desc (Fib.of_candidates local) igp], which equals
    [Fib.of_candidates (local @ igp)]. The one base-FIB constructor of
    both this reference path and the engine. Only [local] is sorted:
    [igp] comes strictly descending by prefix from route selection and
    merges in one linear pass. *)

val patch_base_fib :
  local:Fib.route list -> old_igp:Fib.route list -> Fib.t -> Fib.route list -> Fib.t
(** [patch_base_fib ~local ~old_igp fib igp] equals [base_fib ~local igp]
    whenever [fib = base_fib ~local old_igp] and both IGP lists are
    strictly descending by prefix — OSPF selection lists, which
    {!Ospf.routes_for}, {!Ospf.select_all} and {!Ospf.routes_for_update}
    emit in that order. It rebuilds only the slots of the prefixes whose
    route differs: the two lists are walked together down to the first
    tail they share physically, and records they share physically are
    skipped. Any other list (a member's [ospf @ rip @ eigrp]) goes to
    {!base_fib}: the walk does not check the order. *)

type igp_domain = {
  dom_key : [ `As of int | `Residual | `Global ];
  dom_members : string list;  (** router names, ascending *)
  dom_scope : string -> bool;  (** evaluated on router names only *)
}

val igp_domains : Device.network -> igp_domain list
(** The disjoint IGP domains of the network: one per AS plus a residual
    domain when BGP is present, a single global domain otherwise. *)

val merge_candidates :
  Fib.route list Smap.t -> Fib.route list Smap.t -> Fib.route list Smap.t
(** Per-router concatenation (left routes first). *)

val domain_candidates :
  ?pool:Netcore.Pool.t ->
  Device.network ->
  igp_domain ->
  Fib.route list Smap.t
(** OSPF @ RIP @ EIGRP candidates of one domain's members. *)
