(** The crucible's oracle suite: checks every generated network must pass.

    Each oracle is a named total check over a {!Netgen.Netspec.t}; {!run}
    converts any escaping exception into a {!Fail} verdict so that a
    crash anywhere in the pipeline is a finding rather than a harness
    abort, and so the shrinker can keep reducing a spec that makes the
    pipeline raise.

    The suite:
    - [diff_fib] — differential simulation: sequential vs parallel
      {!Netcore.Pool}, incremental {!Routing.Engine} vs from-scratch
      {!Routing.Simulate}, and the production kernels vs {!Reference}
      ({!kernel_divergence}), including a short random edit walk (deny
      filters, interface additions, fake links at and below the SFE min
      cost, cost rewrites) re-checked after every step;
    - [workflow] — anonymization invariants after {!Confmask.Workflow}:
      k-degree anonymity of the anonymized topology, functional
      equivalence checked by {!Reference.equivalence} (original
      nodes/links/hosts preserved and identical delivered path sets on
      the reference data plane), and byte-identical output per device on
      a second run under the same seed with the config list shuffled;
    - [rename] — metamorphic: permuting router names (same declaration
      order, so the emitter assigns identical addresses) must permute the
      FIBs without changing their structure;
    - [reanon] — metamorphic: re-anonymizing an anonymized network must
      keep k-degree anonymity;
    - [scrub] — after the PII add-on, no password/secret/community/key
      token from the original configurations survives, and no original
      device name appears in the shared text;
    - [policy_transfer] — metamorphic: every policy mined from the
      original network ({!Spec.mine} — reachability, waypoints,
      load-balance width, all between real nodes) must still hold on
      the anonymized network ({!Confmask.Verify}); then Theorem B.7
      over the real hosts: {!Spec.mine_properties} gives equal sets on
      the two planes, and every property of the original is
      [holds_both] under the differential check. Any other verdict or
      any lost or gained property is a failure;
    - [deanon_budget] — red team: run the de-anonymization attack suite
      ({!Confmask.Audit}) against a PII-scrubbed output and assert the
      guaranteed budget — planted legacy small-int keys are recovered by
      the brute force, full 64-bit keys are not, prefix-hierarchy
      survival under the Pan map is exactly 1, top-5 re-identification
      dominates top-1, all scores in [0,1], and scoring is
      deterministic. *)

type verdict = Pass | Fail of string

type t = {
  name : string;
  doc : string;
  check : seed:int -> Netgen.Netspec.t -> verdict;
}

val diff_fib : t
val workflow : t
val rename : t
val reanon : t
val scrub : t
val policy_transfer : t
val deanon_budget : t

val all : t list
(** In cost order:
    [diff_fib; workflow; rename; scrub; reanon; policy_transfer;
     deanon_budget]. *)

(** {1 Production against the reference} *)

type kernels = {
  ospf :
    ?scope:(string -> bool) ->
    Routing.Device.network ->
    Routing.Fib.route list Routing.Device.Smap.t;
  dataplane : Routing.Simulate.snapshot -> Routing.Dataplane.t;
}
(** The production functions [diff_fib] checks against {!Reference}. *)

val production : kernels
(** [Routing.Ospf.compute] and [Routing.Simulate.dataplane]. *)

val kernel_divergence :
  ?kernels:kernels -> Routing.Simulate.snapshot -> string option
(** Compares [kernels] (default {!production}) with {!Reference} on one
    snapshot: OSPF routes and [Routing.Ospf.min_cost] distances per IGP
    domain, [Routing.Fib.probe_lpm] against [Routing.Fib.lookup] on
    every host address and every route's network address, and the data
    plane trace for trace. Names the first part that differs, or
    [None]. *)

val diff_fib_with : kernels -> t
(** [diff_fib] run against other kernels: [diff_fib = diff_fib_with
    production]. Tests pass deliberately faulty kernels to show the
    oracle catches them. *)

(** {1 Fake-link edits} *)

val add_link :
  Configlang.Ast.config list ->
  u:string ->
  v:string ->
  ?cost_uv:int ->
  ?cost_vu:int ->
  unit ->
  Configlang.Ast.config list
(** [add_link configs ~u ~v ()] connects routers [u] and [v] the way
    topology anonymization adds a fake link ({!Confmask.Edits}): a fresh
    /30, one new interface per end ([cost_uv] on [u]'s, [cost_vu] on
    [v]'s, the default cost when absent) and the subnet in both routers'
    IGP network statements. *)

val add_links :
  rng:Netcore.Rng.t ->
  below:bool ->
  count:int ->
  Routing.Device.network ->
  Configlang.Ast.config list ->
  Configlang.Ast.config list
(** [add_links ~rng ~below ~count net configs] adds up to [count] links
    with {!add_link} between distinct, non-adjacent OSPF routers of one
    IGP domain of [net] that reach each other. Each direction costs the
    shortest-path distance in [net] (the SFE cost rule, which shortens
    no path), or with [below] a random cost strictly under it (which
    shortens some). Fewer links are added when fewer pairs qualify. *)

val find : string -> (t, string) result
(** Lookup by name; the error lists the valid names. *)

val run : t -> seed:int -> Netgen.Netspec.t -> verdict
(** Exception-safe: raising checks become [Fail] with the exception text.
    Bumps the [crucible.oracle_runs] telemetry counter. *)
