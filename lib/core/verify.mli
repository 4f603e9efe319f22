(** Differential policy verification of an anonymization (the Seagull
    consumer, ROADMAP item 2): which operator policies — or, by
    default, the whole mined specification of the original network —
    transfer to the anonymized network.

    Thin glue over {!Spec.Query}: reads both snapshots' memoized data
    planes, mines the default policy set, maps names through the
    workflow's node correspondence, and renders machine-readable reports
    for the CLI ([confmask verify --json]), the serve daemon
    ([{"op": "verify"}]) and the per-cell [verification] record of the
    batch manifest. The summary of the mined set is counted per group of
    host pairs that share their class pair in both planes, so it costs
    O(groups × policies per pair), not O(host pairs × policies). *)

module Query = Spec.Query

type result = {
  summary : Query.summary;
  entries : Query.entry list option;
      (** one per policy, input order; only when asked for *)
}

val check :
  ?entries:bool ->
  ?policies:Query.policy list ->
  ?rename:(string -> string) ->
  orig:Routing.Simulate.snapshot ->
  anon:Routing.Simulate.snapshot ->
  unit ->
  result
(** [policies] defaults to the mined specification of [orig] (every
    policy of which references real nodes only); [rename] (default:
    identity) carries original names into the anonymized namespace.
    [entries] (default [false]) also builds the per-policy entries; the
    summary is the same either way. Emits a [verify.check] telemetry
    span and bumps [verify.policies] / [verify.lost] counters. *)

val of_report :
  ?entries:bool -> ?policies:Query.policy list -> Workflow.report -> result
(** {!check} on a workflow report's own snapshots, renaming through its
    [name_map] — for the paper pipeline (no PII) that map is the
    identity; for PII runs it is the scrub's device renaming. *)

val json_fields : result -> (string * Netcore.Json.t) list
(** Summary counts (and, when the result has them, the per-policy
    entries under ["entries"]) as JSON object fields — shared by the
    CLI's [--json] output and the serve [verify] response. *)

val to_json : result -> Netcore.Json.t

val record : result -> Netcore.Json.t
(** The summary object embedded as the ["verification"] field of a
    batch cell's [result.json]: {!to_json} without entries, its
    [kept_fraction] rounded to three decimals ({!Netcore.Json.round3}).
    Deterministic, so a re-executed cell prints the same bytes. *)

val record_json : result -> string
(** {!record}, printed by {!Netcore.Json.to_string}. *)
