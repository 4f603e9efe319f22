(** Network specification mining, after Config2Spec (Birkner et al.,
    NSDI 2020), and the property families of ConfMask Appendix B.

    A specification is the set of policies that hold in a network's data
    plane, written in the one property language, {!Query.policy}. Two
    miners share the per-pair reachability and waypoint computation:
    {!mine} reports the three families Config2Spec reports and the
    ConfMask evaluation diffs (Figure 9); {!mine_properties} reports the
    six families of Theorem B.7, which says functional equivalence
    preserves them all. *)

module Query = Query
(** The property language, its parsers and the differential
    verification engine. *)

val mine : Routing.Dataplane.t -> Query.policy list
(** Reachability, waypoints and load balancing (exactly [n] >= 2
    delivered paths, as a [Loadbalance (s, d, n)] that {!Query.eval}
    holds at) of a simulated data plane; sorted, deduplicated. *)

val mine_pair : string * string -> string list list -> Query.policy list
(** One pair's share of {!mine}, from its delivered paths: the pair's
    reachability, its waypoints in name order and its load balancing.
    {!mine} is the sorted union of this over every pair. *)

val mine_paths : ((string * string) * string list list) list -> Query.policy list
(** Same, from explicit per-pair path sets (used for the NetHide baseline,
    whose forwarding is defined by its virtual topology rather than by a
    simulation). *)

val mine_properties : ?hosts:string list -> Routing.Dataplane.t -> Query.policy list
(** The six Appendix B families — reachability, path length, black
    hole, multipath inconsistency, waypoint, routing loop — read from
    every pair's trace; sorted, deduplicated. [hosts] restricts to
    pairs with both endpoints listed. Every mined policy holds under
    {!Query.eval}, and for a pair each family holds under it exactly
    when it is mined. *)

type diff = {
  kept : Query.policy list;  (** policies of the original that still hold *)
  lost : Query.policy list;  (** policies of the original that disappeared *)
  introduced : Query.policy list;  (** new policies not in the original *)
}

val compare_specs : orig:Query.policy list -> anon:Query.policy list -> diff
(** The set difference of two specifications. For the Appendix B
    families over real hosts, Theorem B.7 holds on a run exactly when
    [lost] and [introduced] are empty. *)

val kept_fraction : diff -> float
(** |kept| / |orig|; 1.0 for an empty original specification. *)

val introduced_involving : diff -> hosts:string list -> Query.policy list
(** Introduced policies whose endpoints are NOT both in [hosts] — i.e.
    policies that only exist because of fake hosts (the benign kind of
    introduced specification, §7.2). *)
