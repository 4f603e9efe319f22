(** Red-team audit: run the de-anonymization attack suite
    ([Redteam.Suite]) against an original/anonymized network pair and
    report the measured security budget.

    Two entry points mirror {!Verify}: {!check} pairs two simulated
    config sets (the CLI / serve surface, {!Recipient.redteam} — ground
    truth is inferred, see below), {!of_report} scores a {!Workflow.report} (the batch surface —
    ground truth is exact: recorded fake edges, the scrub renaming, and
    the planted PII key). Attacks are deterministic, so the same pair
    always yields byte-identical scores — the batch resume path relies on
    that via {!record_json}. *)

type result = Redteam.Attack.score list

val check :
  ?attacks:string list ->
  ?key_range:int ->
  ?planted_key:Pii.Pan.key ->
  orig_configs:Configlang.Ast.config list ->
  orig:Routing.Simulate.snapshot ->
  anon_configs:Configlang.Ast.config list ->
  anon:Routing.Simulate.snapshot ->
  unit ->
  result
(** Ground truth is inferred from the pair: when every original router
    name survives into the shared set, the correspondence is the identity
    and fake edges are the shared topology's surplus edges; renamed
    (PII-scrubbed) pairs run ungrounded (scores carry
    [("grounded", 0.)]). *)

val of_report :
  ?attacks:string list -> ?key_range:int -> Workflow.report -> result

val json_fields : result -> (string * Netcore.Json.t) list
val to_json : result -> Netcore.Json.t

val record : result -> Netcore.Json.t
(** The array embedded as the ["redteam"] field of a batch cell's
    [result.json]: each attack's {!to_json} object without [detail], its
    precision and recall rounded to three decimals
    ({!Netcore.Json.round3}). Deterministic, so a re-executed cell prints
    the same bytes. *)

val record_json : result -> string
(** {!record}, printed by {!Netcore.Json.to_string}. *)
