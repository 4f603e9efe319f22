(** The property language: every policy the system mines, verifies or
    reads from an operator, parsed from a small text or JSON policy
    format, evaluated against an extracted {!Routing.Dataplane.t}, and
    checked differentially on an original vs. anonymized network pair
    with a typed verdict and witness/counterexample paths per policy.

    Eight families: the three Config2Spec mines for Figure 9
    (reachability, waypoint, load balancing), isolation, and the four
    Appendix B adds for Theorem B.7 (path length, black hole, multipath
    inconsistency, routing loop). {!Spec} holds the miners; the
    verifier's queries (the Seagull consumer) use the same type.

    Evaluation is per-policy table lookups on an already-extracted data
    plane, so the expensive part (simulation + FEC-collapsed trace
    extraction) is paid once per network, not per policy: verifying P
    policies costs O(classes) for the extraction plus O(P) lookups, not
    O(host-pairs × P). *)

(** Constructors are declared in polymorphic-compare order: sorted
    mined lists and [confmask verify --json] entries follow it. *)
type policy =
  | Reachability of string * string
      (** [Reachability (src, dst)]: at least one delivered path *)
  | Waypoint of string * string * string
      (** [Waypoint (src, dst, w)]: [src] reaches [dst] and router [w]
          is on every delivered path (B.5) *)
  | Isolation of string * string
      (** [Isolation (src, dst)]: no delivered path at all *)
  | Loadbalance of string * string * int
      (** [Loadbalance (src, dst, n)]: traffic spreads over at least
          [n] delivered paths *)
  | Path_length of string * string * int
      (** [Path_length (src, dst, n)]: every delivered path, and at
          least one, crosses exactly [n] routers *)
  | Black_hole of string * string
      (** some walk is dropped (no route) or filtered (ACL) before
          delivery (B.3) *)
  | Multipath_inconsistent of string * string
      (** delivered on some path, dropped or filtered on another (B.4) *)
  | Routing_loop of string * string  (** some walk revisits a router (B.6) *)

val to_string : policy -> string
(** Canonical text form, one policy per line in a policy file:
    [reach(s, d)], [waypoint(s, d, w)], [isolation(s, d)],
    [loadbalance(s, d, n)], [pathlength(s, d, n)], [blackhole(s, d)],
    [inconsistent(s, d)], [loop(s, d)]. *)

val to_json : policy -> Netcore.Json.t
(** The JSON object form {!parse} reads: ["type"] (the text form's
    name), ["src"], ["dst"], and ["via"] for a waypoint, ["paths"] for
    load balancing, ["length"] for a path length. *)

val endpoints : policy -> string * string

val nodes : policy -> string list
(** Every node the policy references: endpoints plus the waypoint. *)

val map_names : (string -> string) -> policy -> policy
(** Rewrite every referenced node name (used to carry a policy across
    an anonymization's node correspondence). *)

val parse_policy : string -> (policy, string) result
(** One policy from its text form. Accepts the canonical names and the
    synonyms [reachability] and [isolated]; tolerates whitespace around
    names. Counts must be at least 1. *)

val parse : string -> (policy list, string) result
(** A whole policy file. Two formats, auto-detected:

    - text: one policy per line, [#] starts a comment, blank lines
      ignored (errors name the offending line number);
    - JSON (first non-blank character is ['[']): an array of
      {!to_json} objects. *)

(** {1 Evaluation} *)

type outcome = {
  holds : bool;
  witness : Routing.Dataplane.path list;
      (** paths supporting the policy when it holds (all delivered
          paths for reachability/load balance, the via-paths for
          waypoint); capped at {!max_evidence} *)
  counterexample : Routing.Dataplane.path list;
      (** paths refuting it when it does not (waypoint-missing paths,
          the delivered paths violating isolation, the insufficient
          path set for load balance); capped at {!max_evidence} *)
}

val interior : Routing.Dataplane.path -> string list
(** The routers strictly between a path's two host endpoints: the
    candidate waypoints of [[h_s; r_1; ...; r_n; h_d]]. Linear in the
    path length. *)

val max_evidence : int
(** Cap on recorded witness/counterexample paths (the verdict itself is
    computed from the full path set). *)

val eval : Routing.Dataplane.t -> policy -> outcome
(** Total: a node unknown to the data plane simply has no paths (so
    reachability fails and isolation holds). *)

val no_trace : Routing.Dataplane.trace
(** The trace of a pair a plane lacks: no path of any kind. *)

val eval_trace : Routing.Dataplane.trace -> policy -> outcome
(** The policy on a given trace of its endpoints: {!eval} reads the
    plane's trace of the policy's pair and calls this. [holds] reads a
    trace's paths only through their router interiors, their lengths
    and their number, so it is the same on a trace whose endpoints were
    renamed; the evidence paths carry the endpoints' names. *)

(** {1 Differential verification} *)

type verdict =
  | Holds_both  (** holds on the original and the anonymized network *)
  | Lost  (** holds on the original only — anonymization broke it *)
  | Introduced  (** holds on the anonymized network only, over real nodes *)
  | Holds_neither  (** an operator policy that holds on neither side *)
  | Fake_only
      (** references a node that does not exist in the original network
          (e.g. a fake host); evaluated on the anonymized side only *)

val verdict_to_string : verdict -> string
(** ["holds_both"], ["lost"], ["introduced"], ["holds_neither"],
    ["fake_only"]. *)

type entry = {
  e_policy : policy;  (** in original-network names *)
  e_verdict : verdict;
  e_orig : outcome option;  (** [None] iff the verdict is [Fake_only] *)
  e_anon : outcome;  (** evaluated after {!map_names} through [rename] *)
}

val judge : orig:outcome option -> anon:outcome -> verdict
(** The verdict of a policy from its two outcomes; [orig] is [None] for
    a policy that names a node the original network lacks. *)

val differential :
  ?rename:(string -> string) ->
  orig:Routing.Dataplane.t ->
  anon:Routing.Dataplane.t ->
  known:(string -> bool) ->
  policy list ->
  entry list
(** One entry per policy, in input order. Policies are written in
    original-network names; [rename] (default: identity) maps them into
    the anonymized namespace before the anonymized-side evaluation.
    [known] decides whether a referenced node exists in the original
    network — any unknown node makes the verdict [Fake_only]. *)

type summary = {
  total : int;
  holds_both : int;
  lost : int;
  introduced : int;
  holds_neither : int;
  fake_only : int;
  kept_fraction : float;
      (** |holds_both| / (|holds_both| + |lost|); 1.0 when no policy
          held on the original network *)
}

val summarize : entry list -> summary

val summary_of_counts : (verdict -> int) -> summary
(** The summary of a multiset of verdicts, given how many entries have
    each one. [summarize es] is this over [es]'s verdicts. *)
