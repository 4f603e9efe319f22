(** Step 2.1: the route equivalence algorithm (Algorithm 1, §5.2).

    Iteratively re-simulates the intermediate network and, for every
    router's FIB entry toward a (real) host destination, rejects next hops
    that (a) were not next hops in the original network and (b) are
    reached over a fake link — by adding inbound distribute-list filters
    on the fake attachment point. Terminates when every FIB matches the
    original on all host destinations, which (together with the cost rule
    applied during topology anonymization) establishes the SFE conditions
    and hence functional equivalence (Theorem A.4). *)

type outcome = {
  configs : Configlang.Ast.config list;
  iterations : int;  (** simulations performed *)
  filters_added : int;
  engine : Routing.Engine.t;
      (** engine state at convergence, for downstream reuse *)
}

val fix :
  ?engine:Routing.Engine.t ->
  ?cache:Netcore.Diskcache.t ->
  orig:Routing.Simulate.snapshot ->
  fake_edges:(string * string) list ->
  Configlang.Ast.config list ->
  (outcome, string) result
(** [fix ~orig ~fake_edges configs]: [configs] is the network after
    topology anonymization; [orig] the pre-anonymization snapshot.
    The loop gives up after [2 * |fake_edges| + 8] iterations (the paper
    bounds the iteration count by the number of added edges). It simulates
    through an incremental {!Routing.Engine} — pass [engine] to reuse
    caches from an earlier stage, or [cache] to let a freshly created
    engine read/write a persistent cross-run cache. Errors if the loop
    cannot restore the original FIBs. *)

val fib_equal_on_hosts :
  orig:Routing.Simulate.snapshot -> Routing.Simulate.snapshot -> bool
(** Whether the two snapshots agree on every router's next hops for every
    original-host destination prefix — the SFE-condition check. *)
