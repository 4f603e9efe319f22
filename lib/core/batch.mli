(** Sharded batch driver for anonymization runs ([confmask batch]).

    A batch is an ordered list of jobs — one {!Workflow.run} each — built
    either from the evaluation catalog (network × k_r × k_h grid) or from
    directories of configuration files. Jobs are sharded across the
    domain worker pool; each failure is isolated into an error record
    instead of killing the run. Every job writes its anonymized
    configurations and a one-line [result.json] under [out/<job id>/]
    (through a temp file and a rename, so it is never torn), and the run
    ends by assembling [out/manifest.json] from the per-job records in
    job order. Every record and manifest is a {!Netcore.Json.t} printed
    by {!Netcore.Json.to_string}.

    Resume semantics: with [resume:true], a job whose [result.json]
    parses and has ["status"] ["ok"] is not re-run — its record is
    reused, and since printing is canonical, resuming a finished batch
    reproduces a byte-identical manifest. Failed jobs, and records that
    do not parse, are always re-executed.

    Error classification (shared with the CLI's exit codes): an
    {!Input_error} — missing directory, unparsable file, unknown network,
    infeasible parameters, address-pool exhaustion — is the user's to fix
    (exit 1); any other exception is an internal invariant violation
    (exit 2); cmdliner reports usage errors itself (exit 124). *)

exception Input_error of string
(** A problem with the user's input (as opposed to a bug): bad paths,
    unparsable configurations, unknown catalog ids, infeasible
    anonymization parameters. *)

val input_error : ('a, unit, string, 'b) format4 -> 'a
(** [input_error fmt ...] raises {!Input_error} with the formatted
    message. *)

val classify : exn -> string * string
(** [classify e] is [(cls, message)] where [cls] is ["input"] for
    {!Input_error}, [Sys_error] and address-pool exhaustion, and
    ["internal"] otherwise ([Not_found] included). *)

val exit_code : string -> int
(** Exit code of a classification: ["input"] is 1, anything else 2. *)

val read_file : string -> string
(** Raises [Sys_error], which {!classify} calls input. The CLI, the batch
    driver and the serve daemon share this and the next three. *)

val read_config_dir : string -> Configlang.Ast.config list
(** Reads and parses every [.cfg] file of a directory, in sorted filename
    order, auto-detecting the vendor per file. Raises {!Input_error},
    naming the file where there is one, when the directory is missing or
    holds no [.cfg] file, or a file fails to parse, declares no hostname
    ({!Configlang.Ast.no_hostname}) or one an earlier file
    declared, or declares an interface name twice or an interface with
    mask 0.0.0.0. *)

val write_configs :
  format:Configlang.Vendor.t -> string -> Configlang.Ast.config list -> unit
(** [write_configs ~format dir configs] prints each configuration to
    [dir/<hostname>.cfg], creating [dir] and its parents. *)

val simulate_dir :
  string -> Configlang.Ast.config list * Routing.Simulate.snapshot
(** {!read_config_dir}, then a simulation. A failed simulation raises
    {!Input_error} ["DIR: simulation failed: ..."]. *)

type source =
  | Catalog of string  (** a {!Netgen.Nets} catalog id *)
  | Dir of string  (** a directory of [.cfg] files *)
(** Where a job's configurations come from. A name rather than a
    closure, so a job can be shipped to a serve daemon and
    re-materialized there; loading happens inside the job either way,
    so load failures stay isolated. *)

val load_source : source -> Configlang.Ast.config list
(** Raises {!Input_error} for unknown catalog ids / unusable dirs. *)

type job = {
  job_id : string;  (** unique within the batch; used as directory name *)
  job_source : source;
  job_params : Workflow.params;
}

val grid_jobs :
  ?seed:int ->
  ?noise:float ->
  nets:string list ->
  k_rs:int list ->
  k_hs:int list ->
  unit ->
  job list
(** The evaluation grid: one job per [net × k_r × k_h] combination, in
    that nesting order, with ids like ["A-kr6-kh2"]. Networks come from
    the {!Netgen.Nets} catalog; an unknown id fails as an input error
    when the job runs, not when the manifest is built. [seed] and [noise]
    default to {!Workflow.default_params}'. *)

val dir_jobs :
  ?seed:int ->
  ?noise:float ->
  dirs:string list ->
  k_rs:int list ->
  k_hs:int list ->
  unit ->
  job list
(** Like {!grid_jobs} over directories of [.cfg] files; job ids are
    [basename-krK-khK]. *)

(** The wire form of a served job request: one field table that
    [run ~server] encodes with and the serve daemon decodes with. ["id"],
    ["source"] ([{"catalog": ID}] or [{"dir": PATH}]) and ["out"] are
    required. ["kr"], ["kh"], ["seed"], ["noise"] and ["fake_routers"]
    default to {!Workflow.default_params}'. ["pii_key"] is 16 hex digits
    in a string; ["tenant"] names a daemon-side key and wins over it.
    ["pii"] defaults to whether a key resolved (a contradicting value is
    {!Workflow.run}'s input error); ["format"] is ["cisco"] (default) or
    ["junos"]. Any other field is an error that names it ({!Wire}). *)
module Request : sig
  type t = {
    job : job;
    out : string;  (** the daemon writes [out/<id>/] *)
    format : Configlang.Vendor.t;
    tenant : string option;
  }

  val to_json : t -> Netcore.Json.t
  (** The request, ["op"] included; ["pii"] is sent only when it
      contradicts the key. *)

  val of_json :
    tenants:(string * Pii.Pan.key) list -> Netcore.Json.t -> (t, Wire.error) result
  (** [of_json ~tenants (to_json r) = Ok r] when [r]'s integers are in
      {!Netcore.Json.int}'s range, its noise is finite, and its tenant,
      if any, maps to its key. Decodes through {!Wire.decode}. *)
end

type outcome = {
  records : (string * Netcore.Json.t) list;
      (** (job id, record), in job order *)
  ok : int;
  errors : int;
  pending : int;  (** jobs not processed because of [limit] *)
  reused : int;  (** subset of [ok] restored from a previous run *)
  exit_code : int;  (** worst over the processed jobs; pending is 0 *)
}

val execute :
  out:string ->
  cache:Netcore.Diskcache.t option ->
  format:Configlang.Vendor.t ->
  job ->
  Netcore.Json.t
(** Runs one job in-process: loads the source, runs the workflow,
    writes [out/<id>/configs/] and [out/<id>/result.json], and returns
    the record [result.json] holds. Never raises — failures become error records.
    This is the {e same} code path whether called by {!run} or by the
    serve daemon on behalf of a remote client, which is what makes the
    two modes byte-compatible.

    Each ok record embeds a ["verification"] object ({!Verify.record}):
    the per-verdict policy counts and kept fraction of checking the
    original network's mined specification against the cell's
    anonymized output — so every grid cell carries a machine-readable
    proof of how much of the specification transferred — and a
    ["redteam"] array ({!Audit.record}). Non-integer numbers carry three
    decimals ({!Netcore.Json.round3}). *)

val run :
  ?pool:Netcore.Pool.t ->
  ?cache:Netcore.Diskcache.t ->
  ?server:Netcore.Server.addr ->
  ?tenant:string ->
  ?resume:bool ->
  ?limit:int ->
  ?format:Configlang.Vendor.t ->
  out:string ->
  job list ->
  outcome
(** Runs the batch, sharding jobs across [pool] (default: the shared
    pool). [cache] is handed to every job's {!Workflow.run}, so the grid
    shares one persistent simulation cache. [limit] bounds the number of
    jobs {e executed} this run (reused jobs are free); the rest are
    recorded as pending — the deterministic way to interrupt a batch.
    Enables telemetry (the per-job records embed counter deltas).
    Duplicate job ids are an {!Input_error}.

    With [server], the driver becomes a {e client} of a live
    [confmask serve] daemon: each job is sent as one request (with
    [out] and any [Dir] sources made absolute, since the daemon
    executes them), the daemon runs {!execute} with {e its} resident
    caches and writes the per-job outputs, and the returned record is
    assembled into the local manifest. Queue-full rejections are
    retried with backoff (the admission-control pushback); an
    unreachable daemon turns into per-job input-class error records.
    [cache] is ignored in this mode — the daemon's cache is the point.
    [tenant] names the daemon-side PII key to scrub with. Requests are
    {!Request.to_json}'s. *)

val manifest_path : string -> string
(** [manifest_path out] is the path of the results manifest under the
    batch output directory [out]. *)
