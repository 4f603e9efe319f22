(** A deliberately naive model of what the production simulator computes,
    used only by the crucible oracles and the tests.

    Production OSPF runs interned CSR Dijkstras deduplicated per
    advertiser, sharded across a pool, with batched selection, and
    production extraction collapses hosts into forwarding-equivalence
    classes walked over FIB probes and suffix memos. This module does
    none of that. It keeps persistent maps, a plain Dijkstra over
    {!Netcore.Pqueue}, one route selection per (router, prefix) written
    from the model's definition, and one {!Routing.Dataplane.traceroute}
    per ordered host pair. It is slow on purpose; run it on small
    networks. The [confmask] CLI does not link it. *)

module Smap = Routing.Device.Smap

(** {1 OSPF} *)

val dijkstra :
  succ:(string -> (string * int) list) -> (string * int) list -> int Smap.t
(** [dijkstra ~succ seeds]: the least [seed cost + path cost] from any
    seed to every reachable vertex, where [succ v] lists [v]'s outgoing
    [(neighbor, cost)] edges. *)

val ospf_routes :
  ?scope:(string -> bool) ->
  Routing.Device.network ->
  Routing.Fib.route list Smap.t
(** The OSPF routes of every in-scope router, selected one (router,
    prefix) pair at a time. A router has a route to a prefix it does not
    advertise itself when it is reachable to one of the prefix's
    advertisers. The metric is its distance to the prefix (stub cost
    included). The next hops are its OSPF neighbors on a shortest path
    whose interface no inbound distribute-list denies the prefix on.
    Routes are in ascending prefix order; routers without routes have no
    binding. Next hops are in the router's adjacency order. Compare
    against [Routing.Ospf.compute] up to route order. *)

val min_cost :
  ?scope:(string -> bool) -> Routing.Device.network -> string -> int Smap.t
(** Shortest OSPF distance from a router to every router it reaches;
    the model of [Routing.Ospf.min_cost]. *)

(** {1 Data plane} *)

val dataplane : ?max_paths:int -> Routing.Simulate.snapshot -> Routing.Dataplane.t
(** One {!Routing.Dataplane.traceroute} per ordered pair of distinct
    hosts, fanned out into {!Routing.Dataplane.of_traces}: [List.find_opt]
    scans and {!Routing.Fib.lookup}, no lookup tables, no classes, no
    probes, no renaming. The model of [Routing.Simulate.dataplane]'s
    per-pair view at the same [max_paths]. *)

(** {1 Functional equivalence} *)

val equivalence :
  orig:Routing.Simulate.snapshot ->
  anon:Routing.Simulate.snapshot ->
  (unit, string) result
(** Definition 3.3 checked on the reference data plane. [anon] keeps
    every original router, router link and host. For every ordered pair
    of original hosts it delivers exactly the original set of forwarding
    paths. The error names the first element or pair that differs. Names
    must be shared (no PII renaming). *)
