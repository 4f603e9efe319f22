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
    keep the expensive one across edits (a state reaches the persistent
    cache only inside the engine's whole state): {!prepare} runs every
    per-prefix Dijkstra (depends on interfaces, costs and [network]
    statements only), and {!base_fibs} writes each router's selection
    against a prepared state (depends additionally on that router's
    distribute-lists) straight into its base FIB. No per-router route
    list is kept. *)

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
    {!prepare_update} share them physically. A state also keeps its
    prefixes' sorted {!Fib.key}s, the key array its base FIBs share. *)

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

val base_fibs :
  ?pool:Netcore.Pool.t ->
  state ->
  Device.network ->
  (string * Fib.t) list ->
  Fib.t list
(** [base_fibs st net members] gives, for each [(r, others)] in order,
    the {!Fib.add_candidate} fold of [r]'s OSPF selection under [st] into
    [others]. A router outside [st]'s scope selects nothing and gets
    [others] itself. Each router's FIB is filled whole, in ascending
    prefix order and at its exact size, before the next one's
    (router-major), with one body per distinct single-hop mark and per
    distinct (metric, next-hop edges), not one per slot; a FIB that holds
    exactly the state's prefixes shares the state's key array. Routers
    are sharded across [pool] in contiguous chunks, which cannot change
    the result. *)

val patch_base :
  state ->
  Device.network ->
  string ->
  others:Fib.t ->
  Fib.t ->
  Netcore.Prefix.t list ->
  Fib.t
(** [patch_base st net r ~others fib ps] rebuilds the slots of the
    prefixes [ps] (any order, duplicates allowed) of [fib], each as
    [others]' slot plus [r]'s selection for it under [st]
    ({!Fib.replace}, sharing [st]'s key array when the result holds
    exactly [st]'s prefixes); it returns [fib] itself when no slot
    changes. It
    equals [base_fibs st net [(r, others)]] whenever [fib] equals that
    FIB outside [ps]: on an edit that keeps [r]'s adjacency row, [ps]
    holds the prefixes whose distance field changed (as
    {!prepare_update} reports), those whose filter decision changed (as
    {!changed_filter_prefixes} bounds) and those whose [others] slot
    changed. *)

val compute :
  ?scope:(string -> bool) ->
  ?pool:Netcore.Pool.t ->
  Device.network ->
  Fib.route list Smap.t
(** OSPF candidate routes per router, strictly descending by prefix: the
    {!base_fibs} of [prepare ~scope net] over empty [others], read back
    as lists. Routers with no routes have no binding. [scope] restricts
    the domain (used to run one OSPF instance per AS in BGP networks);
    it defaults to all routers. Kept for the crucible and the tests; the
    simulator itself builds FIBs. *)

val min_cost :
  ?scope:(string -> bool) -> Device.network -> string -> string -> int option
(** [min_cost ~scope net u v] is the OSPF shortest-path distance from
    router [u] to router [v] inside [scope] — the [min_cost(u, v)] of the
    link-state SFE conditions (§5.1). It is [Some 0] when [u = v];
    otherwise it is [None] when [v] is unreachable from [u] or either is outside the
    scoped OSPF graph. The query is staged: [min_cost ~scope net]
    compiles the scope's forward graph once, and applying that to [u]
    runs one Dijkstra, so hold on to each stage to query many pairs.
    The SFE rule reads a fake link's costs in the source router's IGP
    domain ({!Simulate.igp_domains}); a link between two domains gets
    no SFE cost, since neither domain's SPF uses it. *)
