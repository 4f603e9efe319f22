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
    ["detail"] where useful.

    Each op reads its fields through one table ({!Wire.decode}); the one
    rejection rule: a field the table does not name, a value of the
    wrong type, an integer beyond 1e15 or a bad value is a
    ["bad_request"] whose detail names the field, and an unregistered
    tenant is ["unknown_tenant"]. ["op"] is a required string.

    - ["ping"], ["stats"], ["shutdown"]: no fields. [stats] answers the
      queue and connection gauges and every telemetry counter and span
      of the daemon (its caches' hit counters live here); [shutdown]
      acknowledges, then drains in-flight requests and ends
      {!Netcore.Server.run}.
    - ["sleep"]: ["seconds"] (number, default 0.1, capped at 10) —
      occupies a worker, for diagnostics and admission-control tests.
    - ["job"]: {!Batch.Request}'s table. Runs {!Batch.execute} with the
      resident caches, writing [out/<id>/] as the local batch driver
      does, and answers [{"record": "<result.json line>"}].
    - ["verify"]: ["orig_dir"], ["anon_dir"] (required), ["policies"]
      (inline text or JSON), ["policies_file"] (a daemon-readable path,
      for sets beyond the 1 MiB line), ["entries"] (boolean) —
      {!Recipient.verify}, the CLI's [verify]: the per-verdict counts,
      and with ["entries": true] every policy's verdict and witness.
    - ["redteam"]: ["orig_dir"], ["anon_dir"] (required), ["attacks"]
      (array of names), ["key_range"] (integer), ["tenant"],
      ["pii_key"] (16 hex digits; a tenant's key wins) —
      {!Recipient.redteam}, the CLI's [redteam]: per-attack precision
      and recall; the key is planted to ground the brute force.

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
