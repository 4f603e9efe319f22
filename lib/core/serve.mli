(** The [confmask serve] daemon: the anonymization pipeline behind a
    resident line-delimited JSON protocol.

    One process holds everything that is expensive to warm — the
    {!Netcore.Pool} worker domains and the persistent
    {!Netcore.Diskcache} — and answers requests over
    a Unix or TCP socket ({!Netcore.Server} supplies the transport,
    bounded queue, admission control and graceful drain). The batch
    driver runs as a client of this daemon ([confmask batch --server]),
    executing the {e same} {!Batch.execute} per job, so a served grid is
    byte-compatible with a one-shot one.

    Protocol: one JSON object per line in, one per line out. Every
    response carries ["ok": true|false]; failures carry a typed
    ["error"] — ["queue_full"] (admission control), ["draining"]
    (shutdown in progress), ["request_too_long"] (a request line over
    1 MiB; the daemon answers once and closes the connection),
    ["bad_request"], ["unknown_tenant"], ["internal"] — plus a human
    ["detail"] where useful. Operations:

    - [{"op": "ping"}] — liveness.
    - [{"op": "stats"}] — queue/served/rejected gauges, uptime, plus
      every telemetry counter and span of the daemon process (the
      [diskcache.*] and [engine.*] hit counters live here, since the
      daemon is where the caches are).
    - [{"op": "job", ...}] — run one anonymization job with the resident
      caches; writes [out/<id>/] exactly like the local batch driver and
      answers [{"ok": true, "record": "<result.json line>"}]. The fields,
      their defaults and the rejection rule are {!Batch.Request}'s: an
      unknown, mistyped or out-of-range field is a [bad_request] naming
      it, and an unregistered tenant is [unknown_tenant]. A job is
      scrubbed exactly when it carries a PII key.
    - [{"op": "verify", "orig_dir": DIR, "anon_dir": DIR,
       "policies": TEXT?, "policies_file": PATH?, "entries": BOOL?}] —
      differential policy verification ({!Verify.check}) of two config
      directories: simulate both, evaluate the given policies (inline
      policy text/JSON, a daemon-readable file, or — default — the
      mined specification of [orig_dir]) on each side, and answer the
      per-verdict summary counts plus, with ["entries": true], the full
      per-policy verdict/witness list. Inline [policies] must fit in the
      1 MiB request line; a larger set goes through [policies_file].
    - [{"op": "redteam", "orig_dir": DIR, "anon_dir": DIR,
       "attacks": [NAME...]?, "key_range": N?, "tenant"?, "pii_key"?}] —
      red-team audit ({!Audit.check}) of two config directories: run the
      de-anonymization attack suite against the pair and answer the
      per-attack precision/recall scores. [tenant]/[pii_key], read as
      for [job] ({!Batch.Request.key_of_json}), optionally plant the
      scrub key so the brute-force attack's recovery is verified.
    - [{"op": "sleep", "seconds": S}] — occupy a worker (diagnostics /
      admission-control testing only; capped at 10 s).
    - [{"op": "shutdown"}] — acknowledge, then drain in-flight requests
      and exit {!run}.

    Trust boundary: whoever can reach the socket can make the daemon
    read config dirs and write result dirs with its privileges — bind
    Unix sockets in protected directories and TCP on loopback. *)

type config = {
  addr : Netcore.Server.addr;
  queue_cap : int;  (** bound on queued requests (admission control) *)
  workers : int;  (** concurrent request executors *)
  cache : Netcore.Diskcache.t option;  (** resident simulation cache *)
  tenants : (string * Pii.Pan.key) list;  (** tenant name -> PII key *)
}

val default_queue_cap : int
val default_workers : int

val create : config -> Netcore.Server.t
(** Binds the socket and wires the dispatcher; enables telemetry (the
    [stats] op reports it). Run with {!Netcore.Server.run}; stop with a
    [shutdown] request or {!Netcore.Server.initiate_shutdown} (e.g.
    from a SIGINT/SIGTERM handler). *)

val handle :
  server:Netcore.Server.t option ref ->
  cache:Netcore.Diskcache.t option ->
  tenants:(string * Pii.Pan.key) list ->
  string ->
  string
(** The bare dispatcher ([create] wires it to a transport): one request
    line to one response line. Exposed for tests. *)
