(** Incremental control-plane simulation engine.

    Wraps {!Simulate}'s building blocks with per-IGP-domain caches keyed
    by structural fingerprints of each router's compiled config, so the
    anonymization fixpoints (deny-filter edits in [Route_equiv.fix], the
    k_H repair loop in [Route_anon]) pay only for what an edit actually
    invalidates instead of a full re-simulation per iteration.

    Invalidation granularity, coarse to fine:
    - a router whose full fingerprint is unchanged keeps its FIB when its
      inputs (base FIB, BGP candidates) are also unchanged;
    - per domain, the OSPF SPF state (per-prefix Dijkstras) is reused as
      long as no member changed interfaces, costs or [network] statements
      — distribute-list edits, the only edit the fixpoints issue, never
      invalidate it; per-router OSPF route selection is recomputed only
      for members whose filters changed;
    - an edit that keeps every adjacency (stub attachments) or only adds
      some (fake links) extends the SPF state: distance fields no added edge can shorten
      are kept, the rest are recomputed ({!Ospf.prepare_update}), and
      only routers whose adjacency row gained an adjacency redo their
      whole selection;
    - RIP/EIGRP propagate filters, so a DV-relevant change at any member
      recomputes that domain's DV routes;
    - a router's base FIB is the only place its OSPF routes live: its
      {e others} FIB (connected, static, RIP and EIGRP routes) with the
      selection written into its slots ({!Simulate.base_fibs}). Per
      member the domain reports the selection as unchanged, moved on a
      bounded set of prefixes, or beyond bounds. An unchanged selection
      over an unchanged others FIB reuses the previous base FIB
      physically; a bounded move or a changed others FIB patches the
      previous FIB on those prefixes and on the ones whose others slot
      changed ({!Ospf.patch_base}); the rest, routers whose adjacency
      row changed included, are built by one sharded sweep;
    - BGP is a global fixpoint and is redone whenever anything changed.

    Every build, edits included, compiles its configs afresh with
    {!Device.compile}; the network it holds carries its own lookup
    tables, so no compiled form is cached beside it that an edit could
    leave stale.

    Results are bit-identical to [Simulate.run] on the same configs: the
    property tests in [test/test_routing.ml] compare FIBs structurally
    after random edit sequences.

    On top of the in-memory caches, an optional {e persistent} cache
    (a {!Netcore.Diskcache.t}, see {!open_cache}) carries results across
    processes. It holds two entry kinds, both keyed by every router's
    full fingerprint: the whole state of a from-scratch build, and the
    global BGP fixpoint of any build. A warm rerun of an identical
    workload restores its first state instead of simulating it, and
    each of its edits restores the BGP fixpoint an earlier run computed
    on the same configs. Per-domain SPF states and DV routes are stored
    only inside the whole state. Disk reuse is correctness-neutral by the
    same argument as in-memory reuse — every key covers every input of
    the computation it stores — and is additionally guarded by the
    warm-equals-cold property tests and the [--selfcheck] shadow path.

    Cache reuse is observable through [Netcore.Telemetry] counters
    ([engine.spf_reuse]/[engine.spf_extend]/[engine.spf_full],
    [engine.sel_patch],
    [engine.dv_recompute], [engine.bgp_skip]/[engine.bgp_compute],
    [engine.fib_reuse]/[engine.fib_patch]/[engine.fib_build] (reused,
    patched and fully built FIBs), [engine.edits], and the disk
    hits [engine.state_disk] and [engine.bgp_disk]) and spans
    ([engine.build] and its stages [engine.compile], [engine.domains],
    [engine.candidates], [engine.base_fibs], [engine.bgp],
    [engine.final_fibs]). With the self-check
    on ({!set_selfcheck}, the CLI's [--selfcheck]), every {!apply_edit}
    additionally shadows the incremental result with a from-scratch
    [Simulate.run] and raises [Failure] naming the routers whose FIBs
    are not structurally equal — the check the property tests make,
    sound because both paths build FIBs in one canonical form. *)

module Smap = Device.Smap

type t

val cache_version : string
(** Version tag of the engine's persistent-cache entry format. Bumped
    whenever a marshaled type or a fingerprint definition changes, which
    invalidates every existing cache directory wholesale (see
    {!Netcore.Diskcache.open_dir}). *)

val open_cache : string -> Netcore.Diskcache.t
(** [open_cache dir] opens (creating if needed) a persistent simulation
    cache at [dir], versioned with {!cache_version}. The handle is meant
    to be passed to {!of_configs}; a corrupted or version-mismatched
    directory is treated as empty, never trusted. *)

val of_configs :
  ?pool:Netcore.Pool.t ->
  ?cache:Netcore.Diskcache.t ->
  Configlang.Ast.config list ->
  (t, string) result
(** Compile and simulate from scratch.

    [cache] plugs in a persistent cross-process cache (see {!open_cache}):
    a matching whole-state or BGP entry is restored instead of
    recomputed, and a missing one is stored after computation. The
    engine result is bit-identical with and without it. *)

val of_configs_exn :
  ?pool:Netcore.Pool.t ->
  ?cache:Netcore.Diskcache.t ->
  Configlang.Ast.config list ->
  t

val apply_edit : t -> Configlang.Ast.config list -> (t, string) result
(** [apply_edit t configs] re-simulates under the (full) edited config
    list, reusing every cache the edit does not invalidate. A persistent
    cache passed at {!of_configs} time is carried along for its BGP
    entries. *)

val apply_edit_exn : t -> Configlang.Ast.config list -> t

val set_selfcheck : bool -> unit
(** Turns the process-wide shadow self-check of {!apply_edit} on or off
    (default off). Independent of telemetry being enabled. *)

val snapshot : t -> Simulate.snapshot
(** A fresh snapshot of the current state, with its own data-plane memo:
    two calls never share an extracted plane. *)

val configs : t -> Configlang.Ast.config list

val network : t -> Device.network

val fibs : t -> Fib.t Smap.t

val pool : t -> Netcore.Pool.t option
(** The worker pool this engine fans out on, if one was pinned at
    {!of_configs} time ([None] means the process-wide shared pool). The
    anonymization fixpoints reuse it so their own sharded scans run on
    the same parallelism budget as the engine rebuilds they interleave
    with. *)

val delta : t -> string list option
(** The routers whose final FIB changed in the build that produced [t],
    relative to the engine state the edit was applied to — the
    invalidation frontier consumers of {!apply_edit} can restrict their
    own per-router analyses to. Sorted by name. [None] after a
    from-scratch build ({!of_configs} or a whole-state disk restore):
    there is no previous state to diff against, so callers must treat every router as changed. The change
    test is structural equality of the canonical FIB representation, so
    a reported delta of [[]] really is a no-op edit. *)
