(** Step 2.2: the route anonymity algorithm (Algorithm 2, §5.3).

    Adds [k_h - 1] fake hosts per real host on the same ingress router —
    each a copy of the real host's configuration with a fresh name and an
    IP from a prefix disjoint from everything in the original network —
    then randomly (with the noise coefficient [p]) adds deny filters on
    FIB entries toward fake-host destinations, rolling back any filter
    that breaks a fake host's reachability. Real-host forwarding is
    untouched: the filters only ever name fake prefixes, which no real
    route resolves through. *)

type outcome = {
  configs : Configlang.Ast.config list;
  fake_hosts : (string * string) list;  (** (fake host, real host) *)
  filters_added : int;
  filters_removed : int;  (** rolled back by the reachability check *)
  engine : Routing.Engine.t;
      (** engine state after the final repair simulation *)
}

val anonymize :
  rng:Netcore.Rng.t ->
  k_h:int ->
  p:float ->
  engine:Routing.Engine.t ->
  Configlang.Ast.config list ->
  (outcome, string) result
(** [anonymize ~rng ~k_h ~p ~engine configs]: [configs] is the network
    after route equivalence and [p] the noise coefficient (0.1 in the
    paper's evaluation). [k_h = 1] adds no fake hosts and no filters. The
    noise and repair loops simulate through [engine] (e.g. the one
    [Route_equiv.fix] converged with), reusing its caches. *)

val reachable_routers :
  ?pool:Netcore.Pool.t ->
  Routing.Simulate.snapshot ->
  Netcore.Prefix.t list ->
  (Netcore.Prefix.t * string list) list
(** [reachable_routers snap fps]: Algorithm 2's reachability check, as
    the repair loop runs it. For each prefix, in input order, the routers
    (ascending by name) from which every forwarding branch toward the
    prefix's [.10] address reaches a router with an interface in the
    prefix; a forwarding loop does not deliver. The walks run on dense
    router ids over one walk table of [snap] (see DESIGN §4). *)
