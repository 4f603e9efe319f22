open Netcore

type config = {
  addr : Server.addr;
  queue_cap : int;
  workers : int;
  cache : Diskcache.t option;
  tenants : (string * Pii.Pan.key) list;
}

let default_queue_cap = 64
let default_workers = 1

let c_jobs = Telemetry.counter "serve.jobs"

(* ---- response builders ---- *)

let ok fields = Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields))

let error ?detail kind =
  Json.to_string
    (Json.Obj
       ([ ("ok", Json.Bool false); ("error", Json.Str kind) ]
       @ match detail with Some d -> [ ("detail", Json.Str d) ] | None -> []))

(* A typed rejection: the error kind and its detail. *)
exception Rejected of string * string

let bad fmt = Printf.ksprintf (fun m -> raise (Rejected ("bad_request", m))) fmt

let decoded = function
  | Ok v -> v
  | Error (Batch.Request.Unknown_tenant _ as e) ->
      raise (Rejected ("unknown_tenant", Batch.Request.error_message e))
  | Error e -> bad "%s" (Batch.Request.error_message e)

(* ---- request field access ---- *)

let str_field req name = Option.bind (Json.member name req) Json.str
let int_field req name = Option.bind (Json.member name req) Json.int
let num_field req name = Option.bind (Json.member name req) Json.num
let bool_field req name = Option.bind (Json.member name req) Json.bool

let require what = function Some v -> v | None -> bad "missing field '%s'" what

(* ---- ops ---- *)

let stats_response server =
  let gauges =
    match server with
    | Some s ->
        let st = Server.stats s in
        [
          ("uptime_s", Json.Num st.Server.uptime_s);
          ("accepted", Json.Num (float_of_int st.accepted));
          ("served", Json.Num (float_of_int st.served));
          ("rejected_full", Json.Num (float_of_int st.rejected_full));
          ("rejected_draining", Json.Num (float_of_int st.rejected_draining));
          ("queue_depth", Json.Num (float_of_int st.queue_depth));
          ("in_flight", Json.Num (float_of_int st.in_flight));
          ("queue_cap", Json.Num (float_of_int st.queue_cap));
          ("workers", Json.Num (float_of_int st.workers));
          ("connections", Json.Num (float_of_int st.connections));
        ]
    | None -> []
  in
  ok ((("op", Json.Str "stats") :: gauges) @ Telemetry.json_fields ())

(* The job's fields are decoded by the one codec, [Batch.Request]. *)
let job_response ~cache ~tenants req =
  let r = decoded (Batch.Request.of_json ~tenants req) in
  Telemetry.incr c_jobs;
  (* Same code path as the local batch driver — that, plus the seeded
     determinism of the workflow, is the byte-compatibility argument. *)
  let record = Json.to_string (Batch.execute ~out:r.out ~cache ~format:r.format r.job) in
  ok [ ("op", Json.Str "job"); ("id", Json.Str r.job.job_id); ("record", Json.Str record) ]

(* Differential policy verification of two shared config directories —
   the recipient-side consumer of an anonymized network. Policies come
   inline (["policies"]: the text/JSON policy format as a string), from
   a daemon-readable file (["policies_file"]), or default to the mined
   specification of the original directory. *)
let verify_response req =
  let orig_dir = require "orig_dir" (str_field req "orig_dir") in
  let anon_dir = require "anon_dir" (str_field req "anon_dir") in
  let policies =
    let parsed ~what text =
      match Spec.Query.parse text with
      | Ok ps -> Some ps
      | Error m -> bad "%s: %s" what m
    in
    match (str_field req "policies", str_field req "policies_file") with
    | Some text, _ -> parsed ~what:"policies" text
    | None, Some file -> parsed ~what:file (Batch.read_file file)
    | None, None -> None
  in
  let entries = bool_field req "entries" = Some true in
  let _, orig = Batch.simulate_dir orig_dir in
  let _, anon = Batch.simulate_dir anon_dir in
  let v = Verify.check ?policies ~orig ~anon () in
  ok (("op", Json.Str "verify") :: Verify.json_fields ~entries v)

(* Red-team audit of two shared config directories: run the
   de-anonymization attack suite against the pair and report the
   measured security budget. Ground truth (fake edges, identity
   correspondence) is inferred when device names are shared; a planted
   key for grounding the brute-force attack may come from the tenant
   table or an explicit field. *)
let redteam_response ~tenants req =
  let orig_dir = require "orig_dir" (str_field req "orig_dir") in
  let anon_dir = require "anon_dir" (str_field req "anon_dir") in
  let attacks =
    match Json.member "attacks" req with
    | None -> None
    | Some (Json.Arr l) ->
        Some
          (List.map
             (function Json.Str s -> s | _ -> bad "attacks must be strings")
             l)
    | Some _ -> bad "field 'attacks' must be an array of attack names"
  in
  let key_range = int_field req "key_range" in
  let planted_key = decoded (Batch.Request.key_of_json ~tenants req) in
  let orig_configs, orig = Batch.simulate_dir orig_dir in
  let anon_configs, anon = Batch.simulate_dir anon_dir in
  let scores =
    Audit.check ?attacks ?key_range ?planted_key ~orig_configs ~orig
      ~anon_configs ~anon ()
  in
  ok (("op", Json.Str "redteam") :: Audit.json_fields scores)

let handle ~server ~cache ~tenants line =
  match Json.parse line with
  | Error m -> error ~detail:m "bad_request"
  | Ok req -> (
      match
        match str_field req "op" with
        | None -> bad "missing field 'op'"
        | Some "ping" -> ok [ ("op", Json.Str "ping") ]
        | Some "stats" -> stats_response !server
        | Some "job" -> job_response ~cache ~tenants req
        | Some "verify" -> verify_response req
        | Some "redteam" -> redteam_response ~tenants req
        | Some "sleep" ->
            let s = Option.value ~default:0.1 (num_field req "seconds") in
            let s = Float.min 10.0 (Float.max 0.0 s) in
            Thread.delay s;
            ok [ ("op", Json.Str "sleep"); ("seconds", Json.Num s) ]
        | Some "shutdown" ->
            Option.iter Server.initiate_shutdown !server;
            ok [ ("op", Json.Str "shutdown"); ("draining", Json.Bool true) ]
        | Some op -> bad "unknown op '%s'" op
      with
      | resp -> resp
      | exception Rejected (kind, m) -> error ~detail:m kind
      (* Unreadable directories and files, and failed simulations. *)
      | exception (Batch.Input_error m | Sys_error m) ->
          error ~detail:m "bad_request")

let rejected = function
  | Server.Queue_full -> error "queue_full"
  | Server.Draining -> error "draining"
  | Server.Too_long -> error "request_too_long"

let on_error e = error ~detail:(Printexc.to_string e) "internal"

let create cfg =
  (* The stats op must see populated counters and spans. *)
  Telemetry.set_enabled true;
  let server = ref None in
  let t =
    Server.create
      {
        Server.addr = cfg.addr;
        queue_cap = cfg.queue_cap;
        workers = cfg.workers;
        handler = handle ~server ~cache:cfg.cache ~tenants:cfg.tenants;
        rejected;
        on_error;
      }
  in
  server := Some t;
  t
