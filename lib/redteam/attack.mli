(** Common interface for de-anonymization attacks.

    A red-team attack is handed a [target] — the adversary's view (the
    anonymized snapshot and configurations) plus whatever ground truth
    the harness knows for scoring — and returns a standard [score].
    Ground-truth fields are options: when the harness pairs an original
    network with its anonymized output (batch cells, the CLI on
    un-renamed directories) they are populated and scores are grounded;
    when they are unknown the attack still runs but its hit count stays
    0 and it reports [("grounded", 0.)] in [detail]. *)

type target = {
  orig_snapshot : Routing.Simulate.snapshot;
  orig_configs : Configlang.Ast.config list;
  anon_snapshot : Routing.Simulate.snapshot;
  anon_configs : Configlang.Ast.config list;
  fake_edges : (string * string) list option;
      (** injected router-router edges, when known *)
  correspondence : (string * string) list option;
      (** (original, anonymized) device-name pairs, when known; [Some []]
          means names are shared unchanged (identity) *)
  planted_key : Pii.Pan.key option;
      (** the PII scrub key, when the harness planted it *)
  key_range : int;  (** seed-space bound for key brute-force *)
}

val default_key_range : int
(** 2^16 — covers every legacy small-int key used by tests and seeds. *)

type score = {
  attack : string;
  claims : int;  (** identifications the adversary commits to *)
  hits : int;  (** claims confirmed against ground truth *)
  relevant : int;  (** ground-truth items there were to find *)
  precision : float;  (** 1.0 when nothing is claimed *)
  recall : float;  (** 1.0 when there was nothing to find *)
  detail : (string * float) list;
      (** attack-specific extras (e.g. [top5_rate]), name-sorted *)
}

type t = { name : string; doc : string; run : target -> score }

val score :
  attack:string ->
  claims:int ->
  hits:int ->
  relevant:int ->
  ?detail:(string * float) list ->
  unit ->
  score
(** Fills in precision/recall with the empty-list conventions above. *)

val canonical_edge : string * string -> string * string
(** Undirected edge with endpoints sorted. *)

val edge_hits :
  truth:(string * string) list -> claimed:(string * string) list -> int
(** Size of the intersection after canonicalizing and dedup-sorting both
    sides; linear merge, not quadratic [List.mem]. *)

val edge_score :
  attack:string ->
  truth:(string * string) list ->
  claimed:(string * string) list ->
  ?detail:(string * float) list ->
  unit ->
  score
(** Scores link claims against the true fake edges. Both lists are
    canonicalized and deduplicated first, so a reversed claim counts as
    a hit and a repeated claim counts once; [claims] and [relevant] are
    the deduplicated sizes. *)
