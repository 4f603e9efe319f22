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

val dataplane : snapshot -> Dataplane.t
(** The snapshot's data plane ({!Dataplane.extract}), extracted on the
    first call and returned as the same plane after that, from any
    domain. A plane is immutable, so sharing it is safe. *)

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

val others_fib : Device.network -> Device.router -> Fib.route list -> Fib.t
(** [others_fib net r dv] is router [r]'s {e others} FIB, its candidates
    other than OSPF: [Fib.of_candidates (local_candidates net r @ dv)],
    where [dv] are its RIP then EIGRP routes. *)

val base_fibs :
  ?pool:Netcore.Pool.t ->
  Device.network ->
  Ospf.state option ->
  (string * Fib.t) list ->
  Fib.t list
(** The one base-FIB constructor, of both this reference path and the
    engine. [base_fibs net st members] gives, for each [(r, others)] in
    order with [others = others_fib net r dv], [r]'s FIB before BGP.
    It satisfies the equation

    {[ base r = List.fold_left (fun t c -> Fib.add_candidate c t) others (ospf r) ]}

    where [ospf r] is [r]'s OSPF selection under [st] (none when [st] is
    [None]) in any order, so it equals [Fib.of_candidates (local @ ospf
    @ rip @ eigrp)]: administrative distances make the merge of one
    slot's candidates order-free. The selection is written straight
    into the FIB slots ({!Ospf.base_fibs}); no route list is built. *)

type igp_domain = {
  dom_key : [ `As of int | `Residual | `Global ];
  dom_members : string list;  (** router names, ascending *)
  dom_scope : string -> bool;  (** evaluated on router names only *)
}

val igp_domains : Device.network -> igp_domain list
(** The disjoint IGP domains of the network: one per AS plus a residual
    domain when BGP is present, a single global domain otherwise. *)
