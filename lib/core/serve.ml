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

let decoded = function Ok v -> v | Error e -> Wire.reject e

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

let job_response ~cache ~tenants req =
  let r = decoded (Batch.Request.of_json ~tenants req) in
  Telemetry.incr c_jobs;
  (* Same code path as the local batch driver — that, plus the seeded
     determinism of the workflow, is the byte-compatibility argument. *)
  let record = Json.to_string (Batch.execute ~out:r.out ~cache ~format:r.format r.job) in
  ok [ ("op", Json.Str "job"); ("id", Json.Str r.job.job_id); ("record", Json.Str record) ]

(* The recipient's checks of two shared config directories, through the
   same front ends as the CLI's [verify] and [redteam]. *)
let verify_response req =
  let r = decoded (Recipient.Verify_request.of_json req) in
  ok (("op", Json.Str "verify") :: Verify.json_fields (Recipient.verify r))

let redteam_response ~tenants req =
  let r = decoded (Recipient.Redteam_request.of_json ~tenants req) in
  ok (("op", Json.Str "redteam") :: Audit.json_fields (Recipient.redteam r))

let sleep_response req =
  let s = Wire.(decode [ field "seconds" num (fun _ s -> s) ] 0.1 req) in
  let s = Float.min 10.0 (Float.max 0.0 s) in
  Thread.delay s;
  ok [ ("op", Json.Str "sleep"); ("seconds", Json.Num s) ]

let handle ~server ~cache ~tenants line =
  match Json.parse line with
  | Error m -> error ~detail:m "bad_request"
  | Ok req -> (
      match
        let op =
          match Json.member "op" req with
          | Some v -> Wire.str "op" v
          | None -> Wire.reject (Missing_field "op")
        in
        (* The ops without fields decode through an empty table, so that
           any field but "op" is rejected. *)
        if List.mem op [ "ping"; "stats"; "shutdown" ] then Wire.decode [] () req;
        match op with
        | "ping" -> ok [ ("op", Json.Str "ping") ]
        | "stats" -> stats_response !server
        | "job" -> job_response ~cache ~tenants req
        | "verify" -> verify_response req
        | "redteam" -> redteam_response ~tenants req
        | "sleep" -> sleep_response req
        | "shutdown" ->
            Option.iter Server.initiate_shutdown !server;
            ok [ ("op", Json.Str "shutdown"); ("draining", Json.Bool true) ]
        | op -> Batch.input_error "unknown op '%s'" op
      with
      | resp -> resp
      | exception Wire.Reject (Unknown_tenant _ as e) ->
          error ~detail:(Wire.error_message e) "unknown_tenant"
      | exception Wire.Reject e -> error ~detail:(Wire.error_message e) "bad_request"
      (* Unreadable directories and files, failed simulations and other
         rejected values. *)
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
