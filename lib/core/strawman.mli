(** The two strawman route-fixing baselines of §4.3, used in the
    comparisons of Figures 10 and 16.

    Both consume a network after topology anonymization (the same input as
    {!Route_equiv.fix}) and try to restore the original data plane. *)

type outcome = {
  configs : Configlang.Ast.config list;
  iterations : int;  (** simulations performed *)
  filters_added : int;
}

val strawman1 :
  ?engine:Routing.Engine.t ->
  orig:Routing.Simulate.snapshot ->
  fake_edges:(string * string) list ->
  Configlang.Ast.config list ->
  (outcome, string) result
(** Strawman 1: deny *every* real host prefix on *every* fake interface
    (Listing 3). One simulation to verify; a uniform, easily
    de-anonymizable pattern, and the largest filter footprint. Errors when
    the blanket filters do not restore the original FIBs. *)

val strawman2 :
  ?engine:Routing.Engine.t ->
  orig:Routing.Simulate.snapshot ->
  fake_edges:(string * string) list ->
  Configlang.Ast.config list ->
  (outcome, string) result
(** Strawman 2: traceroute-driven repair. Each iteration compares each
    host pair's current paths with the original, locates the first
    deviating hop closest to the destination, and filters that single
    (router, destination) pair; then re-simulates. Converges to exactly
    the original data plane with a minimal filter set, at the cost of many
    more simulations than Algorithm 1. Gives up after 64 iterations. *)
