(** OSPF (link-state) route computation.

    Single-area model: every router in scope that runs an OSPF process and
    has OSPF-enabled interfaces participates in one shortest-path domain.
    For each advertised prefix we run a multi-source Dijkstra seeded at the
    advertising routers (at their stub costs) over the reversed adjacency,
    then derive ECMP next hops from the distance field. Inbound
    distribute-lists suppress the *installation* of a next hop without
    affecting the SPF computation — exactly the Cisco semantics ConfMask's
    route-equivalence filters rely on (§5.2).

    The computation is split in two phases so the incremental engine can
    cache the expensive one: {!prepare} runs every per-prefix Dijkstra
    (depends on interfaces, costs and [network] statements only), and
    {!routes_for} selects one router's routes against a prepared state
    (depends additionally on that router's distribute-lists). *)

module Smap = Device.Smap

type state
(** SPF state of one domain: the scoped adjacencies, an interner over the
    scoped routers (ids in ascending name order), and per advertised
    prefix its connected routers (seeds) and a dense [int array] indexed
    by router id holding every router's distance toward it ([max_int]
    when unreachable). Seeds outside the interner have no entry: they
    have no scoped adjacency, and a seed selects no route. Valid as long
    as no in-scope router changes its interfaces, costs or IGP [network]
    statements. The arrays are immutable once built, so states derived by
    {!prepare_update} share them physically. *)

val prepare :
  ?scope:(string -> bool) -> ?pool:Netcore.Pool.t -> Device.network -> state
(** Runs the per-prefix Dijkstras, in parallel through [pool] (defaults to
    the shared pool). *)

val prepare_update :
  ?scope:(string -> bool) ->
  ?pool:Netcore.Pool.t ->
  prev:state ->
  Device.network ->
  (state * Netcore.Prefix.t list * string list) option
(** [prepare_update ~prev net] refreshes [prev] after an edit that kept
    the scoped router set and every existing (router, out-interface,
    peer, cost) adjacency (stub attachments), possibly adding new ones
    (fake links). A prefix keeps its distance array, physically shared,
    when its seeds are unchanged and every added directed adjacency
    u->v of cost c satisfies d(u) <= c + d(v) on that array (checked at
    run time); every other prefix gets a fresh Dijkstra on the new
    graph. Returns the new state, the prefixes whose distances changed
    (including ones no longer advertised) and the routers whose
    adjacency row gained an adjacency, or [None] when the router set
    changed or an adjacency was removed or re-costed and a full
    {!prepare} is needed. *)

val rescope : ?scope:(string -> bool) -> Device.network -> state -> state
(** [rescope net st] replaces [st]'s embedded adjacencies with the ones
    of [net] (under [scope]), keeping the distance fields. Used when a
    state is restored from the persistent cache: the distances are valid
    whenever the SPF-relevant inputs match, but the stored adjacencies
    embed interface fields outside that fingerprint (delays, ACLs) that
    must be refreshed for the restored state to be structurally
    identical to a fresh {!prepare}. *)

val routes_for : state -> Device.network -> string -> Fib.route list
(** [routes_for st net r] is router [r]'s OSPF candidate routes under
    state [st]. *)

val select_all :
  ?pool:Netcore.Pool.t -> state -> Device.network -> Fib.route list Smap.t
(** Batched {!routes_for} over every scoped router at once:
    [Smap.find_opt r (select_all st net) |> Option.value ~default:[]]
    equals [routes_for st net r] for every router [r] in the state's
    scope (routers with no routes have no binding). One sweep per
    prefix over its distance array, sharded across [pool] — cheaper than
    per-router selection when most routers need it. *)

val changed_filter_prefixes :
  (string * Configlang.Ast.prefix_list) list ->
  (string * Configlang.Ast.prefix_list) list ->
  Netcore.Prefix.t list option
(** [changed_filter_prefixes old new_] bounds the set of prefixes whose
    inbound-filter decision can differ between the two distribute-list
    configurations: [Some ps] when every list involved in a changed
    interface binding has the [Edits.deny_on_iface] shape (exact-match
    rules then a catch-all permit), [None] when the lists are too general
    to bound cheaply. *)

val routes_for_update :
  state ->
  Device.network ->
  string ->
  prev:Fib.route list ->
  affected:Netcore.Prefix.t list ->
  Fib.route list
(** [routes_for_update st net r ~prev ~affected] patches a previous
    [routes_for] result: selection is redone for the [affected] prefixes
    only and spliced into [prev]. Produces exactly what
    [routes_for st net r] would, provided [r]'s adjacency row is
    unchanged and every prefix outside [affected] kept its distance
    field (as {!prepare_update} reports) and its filter decision (as
    {!changed_filter_prefixes} bounds). *)

val compute :
  ?scope:(string -> bool) ->
  ?pool:Netcore.Pool.t ->
  Device.network ->
  Fib.route list Smap.t
(** OSPF candidate routes per router: [select_all (prepare ~scope net) net].
    [scope] restricts the domain (used to run one OSPF instance per AS in
    BGP networks); it defaults to all routers. *)

val min_cost :
  ?scope:(string -> bool) -> Device.network -> string -> int Smap.t
(** [min_cost net u] is the OSPF shortest-path distance from router [u] to
    every other reachable router in the domain — the [min_cost(u, v)] of
    the link-state SFE conditions (§5.1). *)

type cost_state
(** One scope's prepared forward-distance machinery: the scoped
    routers' interner and forward CSR. Preparing it once and querying
    many sources avoids the per-call graph rebuild that dominates
    {!min_cost} on large networks. *)

val min_cost_state :
  ?scope:(string -> bool) -> Device.network -> cost_state
(** Prepare a scope for repeated single-source queries. *)

val min_cost_from : cost_state -> string -> int Smap.t
(** [min_cost_from st u] equals [min_cost ~scope net u] for the [scope]
    and [net] that built [st]. *)
