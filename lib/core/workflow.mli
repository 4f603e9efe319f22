(** The end-to-end ConfMask workflow (Figure 3): preprocess (simulate the
    original), anonymize the topology, fix route equivalence (Algorithm
    1), anonymize routes (Algorithm 2), and optionally run the PII
    scrubbing add-on. *)

type params = {
  k_r : int;  (** topology anonymity parameter (paper default 6) *)
  k_h : int;  (** route anonymity parameter (paper default 2) *)
  noise : float;  (** Algorithm 2 noise coefficient (paper default 0.1) *)
  seed : int;  (** all randomness derives from this seed *)
  pii : bool;
      (** run the PII add-on as a final stage; must equal
          [pii_key <> None] *)
  pii_key : Pii.Pan.key option;
      (** key of the prefix-preserving IP map: a job is scrubbed exactly
          when it carries one. There is no default key; a full 64-bit key
          comes from {!Pii.Pan.key_of_string}. The serve daemon pins it per
          tenant so one tenant's address mapping is stable across runs and
          distinct from every other tenant's. *)
  fake_routers : int;
      (** §9 extension: fake routers to add before topology anonymization
          (IGP-only networks; 0 disables) *)
}

val default_params : params
(** [k_r = 6; k_h = 2; noise = 0.1; seed = 42; pii = false;
    pii_key = None; fake_routers = 0] — the paper's default evaluation
    setting. *)

type report = {
  params : params;
  orig_configs : Configlang.Ast.config list;
  anon_configs : Configlang.Ast.config list;
  orig_snapshot : Routing.Simulate.snapshot;
  anon_snapshot : Routing.Simulate.snapshot;
  fake_edges : (string * string) list;
  fake_hosts : (string * string) list;  (** (fake, real) *)
  fake_router_names : string list;  (** §9 extension; empty by default *)
  name_map : (string * string) list;
      (** node correspondence [(original, anonymized)] for every shared
          device. Empty (meaning the identity: the pipeline proper never
          renames) unless the PII add-on ran, in which case it records
          the scrub's device renaming so report consumers — the policy
          verifier above all — can map original-name queries into the
          shared namespace. Hosts whose configs were rewritten appear
          too; fake devices have no original name and are absent. *)
  equiv_iterations : int;
  equiv_filters : int;
  anon_filters_added : int;
  anon_filters_removed : int;
}

val run :
  ?params:params ->
  ?cache:Netcore.Diskcache.t ->
  Configlang.Ast.config list ->
  (report, string) result
(** [Error] when [k_r] or [k_h] is below 1, when [pii] and [pii_key]
    disagree, or when a simulation fails. [cache] plugs a persistent
    cross-run simulation cache (see {!Routing.Engine.open_cache}) into
    every simulation of the workflow: the baseline runs through
    {!Routing.Engine.of_configs} (bit-identical to [Simulate.run], but
    restorable from disk) and the route-equivalence and route-anonymity
    fixpoints reuse SPF/DV/BGP entries written by previous processes.
    Results are identical with and without it. *)

val run_exn :
  ?params:params ->
  ?cache:Netcore.Diskcache.t ->
  Configlang.Ast.config list ->
  report

val functional_equivalence : report -> bool
(** Definition 3.3 restricted to real hosts: identical delivered path sets
    for every ordered pair of original hosts, all original routers, hosts
    and links still present. The original snapshot's plane is extracted
    and memoized ({!Routing.Simulate.dataplane}); on the anonymized
    snapshot only the real-host pairs are traced
    ({!Routing.Simulate.dataplane_on}), unless its full plane is already
    memoized. Under PII the value is asserted [true], not
    measured: the scrub renames devices and addresses, and no check maps
    the paths through that renaming yet. *)

val real_hosts : report -> string list
val anon_texts : report -> (string * string) list
(** [(hostname, printed configuration)] for every anonymized device. *)
