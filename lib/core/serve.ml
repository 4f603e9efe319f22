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

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* ---- request field access ---- *)

let field req name = Json.member name req
let str_field req name = Option.bind (field req name) Json.str
let int_field req name = Option.bind (field req name) Json.int
let num_field req name = Option.bind (field req name) Json.num
let bool_field req name = Option.bind (field req name) Json.bool

let require what = function Some v -> v | None -> bad "missing field '%s'" what

(* The PII key of a job or redteam request: a daemon-configured tenant's
   (the tenant wins when both are given) or an explicit [pii_key], which
   must be a full 64-bit hex string ("0xdeadbeefcafef00d"). *)
let resolve_key ~tenants req =
  match str_field req "tenant" with
  | Some t -> (
      match List.assoc_opt t tenants with
      | Some key -> Some key
      | None -> bad "unknown tenant '%s'" t)
  | None -> (
      match field req "pii_key" with
      | None -> None
      | Some (Json.Str s) -> (
          match Pii.Pan.key_of_string s with
          | Ok k -> Some k
          | Error m -> bad "field 'pii_key': %s" m)
      | Some _ -> bad "field 'pii_key' must be a hex-string key")

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

let source_of req =
  match field req "source" with
  | None -> bad "missing field 'source'"
  | Some s -> (
      match
        (Option.bind (Json.member "catalog" s) Json.str,
         Option.bind (Json.member "dir" s) Json.str)
      with
      | Some net, None -> Batch.Catalog net
      | None, Some dir -> Batch.Dir dir
      | _ -> bad "source must be {\"catalog\": ID} or {\"dir\": PATH}")

let format_of req =
  match str_field req "format" with
  | None | Some "cisco" -> Configlang.Vendor.Cisco
  | Some "junos" -> Configlang.Vendor.Junos
  | Some f -> bad "unknown format '%s'" f

let job_response ~cache ~tenants req =
  let d = Workflow.default_params in
  let id = require "id" (str_field req "id") in
  let out = require "out" (str_field req "out") in
  let pii_key = resolve_key ~tenants req in
  let job =
    {
      Batch.job_id = id;
      job_source = source_of req;
      job_params =
        {
          Workflow.k_r = Option.value ~default:d.k_r (int_field req "kr");
          k_h = Option.value ~default:d.k_h (int_field req "kh");
          seed = Option.value ~default:d.seed (int_field req "seed");
          noise = Option.value ~default:d.noise (num_field req "noise");
          (* A contradicting explicit "pii" is Workflow.run's input
             error, answered as the job's error record. *)
          pii =
            Option.value ~default:(Option.is_some pii_key)
              (bool_field req "pii");
          pii_key;
          fake_routers =
            Option.value ~default:d.fake_routers (int_field req "fake_routers");
        };
    }
  in
  Telemetry.incr c_jobs;
  (* Same code path as the local batch driver — that, plus the seeded
     determinism of the workflow, is the byte-compatibility argument. *)
  let record = Batch.execute ~out ~cache ~format:(format_of req) job in
  let record = Json.Str (Json.to_string record) in
  ok [ ("op", Json.Str "job"); ("id", Json.Str id); ("record", record) ]

let read_file path =
  let ic = try open_in_bin path with Sys_error m -> bad "%s" m in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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
    | None, Some file -> parsed ~what:file (read_file file)
    | None, None -> None
  in
  let entries = Option.value ~default:false (bool_field req "entries") in
  let load dir =
    match
      try Routing.Simulate.run (Batch.read_config_dir dir)
      with Batch.Input_error m -> bad "%s" m
    with
    | Ok snap -> snap
    | Error m -> bad "%s: simulation failed: %s" dir m
  in
  let orig = load orig_dir and anon = load anon_dir in
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
    match field req "attacks" with
    | None -> None
    | Some (Json.Arr l) ->
        Some
          (List.map
             (function Json.Str s -> s | _ -> bad "attacks must be strings")
             l)
    | Some _ -> bad "field 'attacks' must be an array of attack names"
  in
  let key_range = int_field req "key_range" in
  let planted_key = resolve_key ~tenants req in
  let load dir =
    match
      let configs = try Batch.read_config_dir dir
        with Batch.Input_error m -> bad "%s" m
      in
      (configs, Routing.Simulate.run configs)
    with
    | configs, Ok snap -> (configs, snap)
    | _, Error m -> bad "%s: simulation failed: %s" dir m
  in
  let orig_configs, orig = load orig_dir in
  let anon_configs, anon = load anon_dir in
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
            let s =
              Float.min 10.0
                (Float.max 0.0
                   (Option.value ~default:0.1 (num_field req "seconds")))
            in
            Thread.delay s;
            ok [ ("op", Json.Str "sleep"); ("seconds", Json.Num s) ]
        | Some "shutdown" ->
            (match !server with
            | Some s -> Server.initiate_shutdown s
            | None -> ());
            ok [ ("op", Json.Str "shutdown"); ("draining", Json.Bool true) ]
        | Some op -> bad "unknown op '%s'" op
      with
      | resp -> resp
      | exception Bad_request m -> (
          match m with
          | _ when String.length m >= 15
                   && String.equal (String.sub m 0 15) "unknown tenant " ->
              error ~detail:m "unknown_tenant"
          | _ -> error ~detail:m "bad_request"))

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
        handler =
          (fun line ->
            handle ~server ~cache:cfg.cache ~tenants:cfg.tenants line);
        rejected;
        on_error;
      }
  in
  server := Some t;
  t
