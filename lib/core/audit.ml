open Netcore
module Attack = Redteam.Attack
module Smap = Routing.Device.Smap

type result = Attack.score list

let c_attacks = Telemetry.counter "redteam.attacks"
let c_claims = Telemetry.counter "redteam.claims"
let c_hits = Telemetry.counter "redteam.hits"

let run ?attacks target =
  Telemetry.with_span "redteam.run" @@ fun () ->
  let scores = Redteam.Suite.run_all ?attacks target in
  List.iter
    (fun (s : Attack.score) ->
      Telemetry.incr c_attacks;
      Telemetry.add c_claims s.claims;
      Telemetry.add c_hits s.hits)
    scores;
  scores

(* Ground truth for two bare config directories: when every original
   router name survives into the shared set, the correspondence is the
   identity and the fake edges are exactly the edges the shared topology
   has beyond the original. Renamed (PII-scrubbed) directories carry no
   usable correspondence — attacks still run, ungrounded. *)
let infer_truth ~(orig : Routing.Simulate.snapshot)
    ~(anon : Routing.Simulate.snapshot) =
  let og = Routing.Device.router_graph orig.net in
  let ag = Routing.Device.router_graph anon.net in
  let shared_names =
    List.for_all (fun n -> Graph.mem_node n ag) (Graph.nodes og)
  in
  if shared_names then
    let fake =
      List.filter
        (fun (u, v) -> not (Graph.mem_edge u v og))
        (Graph.edges ag)
    in
    (Some fake, Some [])
  else (None, None)

let check ?attacks ?(key_range = Attack.default_key_range) ?planted_key
    ~orig_configs ~(orig : Routing.Simulate.snapshot) ~anon_configs
    ~(anon : Routing.Simulate.snapshot) () =
  let fake_edges, correspondence = infer_truth ~orig ~anon in
  run ?attacks
    {
      Attack.orig_snapshot = orig;
      orig_configs;
      anon_snapshot = anon;
      anon_configs;
      fake_edges;
      correspondence;
      planted_key;
      key_range;
    }

let of_report ?attacks ?(key_range = Attack.default_key_range)
    (r : Workflow.report) =
  (* From a workflow report the ground truth is exact: the injected edge
     list, the scrub's recorded renaming (empty = identity), and — when
     the PII stage ran — the very key it used. *)
  run ?attacks
    {
      Attack.orig_snapshot = r.orig_snapshot;
      orig_configs = r.orig_configs;
      anon_snapshot = r.anon_snapshot;
      anon_configs = r.anon_configs;
      fake_edges = Some r.fake_edges;
      correspondence = Some r.name_map;
      planted_key = r.params.pii_key;
      key_range;
    }

(* ---- JSON rendering ---- *)

let score_fields (s : Attack.score) =
  [
    ("attack", Json.Str s.attack);
    ("claims", Json.Num (float_of_int s.claims));
    ("hits", Json.Num (float_of_int s.hits));
    ("relevant", Json.Num (float_of_int s.relevant));
    ("precision", Json.Num s.precision);
    ("recall", Json.Num s.recall);
  ]

let score_json (s : Attack.score) =
  Json.Obj
    (score_fields s
    @ [ ("detail", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.detail)) ])

let json_fields scores = [ ("attacks", Json.Arr (List.map score_json scores)) ]
let to_json scores = Json.Obj (json_fields scores)

let record scores =
  Json.round3 (Json.Arr (List.map (fun s -> Json.Obj (score_fields s)) scores))

let record_json scores = Json.to_string (record scores)
