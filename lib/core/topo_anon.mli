(** Step 1 of the ConfMask workflow: topology anonymization (§4.2).

    Runs k-degree graph anonymization over the router topology and
    implements each generated edge as configuration additions:

    - intra-AS (or IGP-only) fake links get a fresh /30 outside every
      original prefix, interfaces on both routers, IGP network statements,
      and — for OSPF — per-direction costs equal to [min_cost(u, v)], the
      link-state SFE condition that keeps original shortest paths optimal.
      The distance is read in the source router's IGP domain
      ({!Routing.Simulate.igp_domains}); a link between two domains (a
      BGP-less router and an AS router), which neither domain's SPF
      uses, takes the default cost on both ends;
    - inter-AS fake links (BGP networks) get the fresh subnet plus
      matching eBGP neighbor statements on both border routers.

    For BGP networks the anonymization is two-level (§4.2): the AS-level
    supergraph is anonymized first (new AS adjacencies realized between
    random border-capable routers), then the router-level graph with new
    edges placed inside ASes where possible. *)

open Netcore

type result = {
  configs : Configlang.Ast.config list;
  fake_edges : (string * string) list;  (** sorted unordered pairs *)
}

(** OSPF cost assigned to fake intra-AS links. [Min_cost] is ConfMask's
    choice (the SFE condition); [Default_cost] and [Large_cost] are the
    §3.2 strawman options kept for the ablation benchmarks: the former
    migrates original paths onto fake links, the latter preserves paths
    but leaves the fake links traffic-free and trivially identifiable. *)
type cost_policy = Min_cost | Default_cost | Large_cost

val anonymize :
  ?cost_policy:cost_policy ->
  rng:Rng.t ->
  k:int ->
  orig:Routing.Simulate.snapshot ->
  Configlang.Ast.config list ->
  result
(** [anonymize ~rng ~k ~orig configs]: [orig] must be the simulation of
    [configs]. The result's router graph is k-degree-anonymous and is a
    supergraph of the original. *)
