open Netcore
module Smap = Routing.Device.Smap
module Query = Spec.Query

type result = {
  entries : Query.entry list;
  summary : Query.summary;
}

let c_policies = Telemetry.counter "verify.policies"
let c_lost = Telemetry.counter "verify.lost"

let known_in (snap : Routing.Simulate.snapshot) name =
  Smap.mem name snap.net.routers || Smap.mem name snap.net.hosts

let check ?policies ?rename ~(orig : Routing.Simulate.snapshot)
    ~(anon : Routing.Simulate.snapshot) () =
  Telemetry.with_span "verify.check" @@ fun () ->
  let dp_orig = Routing.Simulate.dataplane orig in
  let dp_anon = Routing.Simulate.dataplane anon in
  let policies =
    match policies with
    | Some ps -> ps
    | None -> Spec.mine dp_orig
  in
  let entries =
    Query.differential ?rename ~orig:dp_orig ~anon:dp_anon
      ~known:(known_in orig) policies
  in
  let summary = Query.summarize entries in
  Telemetry.add c_policies summary.total;
  Telemetry.add c_lost summary.lost;
  { entries; summary }

let of_report ?policies (r : Workflow.report) =
  let rename =
    match r.name_map with
    | [] -> None
    | map ->
        (* Indexed once. [of_seq] keeps a name's last binding, so over
           the reversed map the first wins, as with [List.assoc_opt]. *)
        let tbl = Hashtbl.of_seq (List.to_seq (List.rev map)) in
        Some (fun n -> Option.value ~default:n (Hashtbl.find_opt tbl n))
  in
  check ?policies ?rename ~orig:r.orig_snapshot ~anon:r.anon_snapshot ()

(* ---- JSON rendering ---- *)

let path_json p = Json.Arr (List.map (fun hop -> Json.Str hop) p)

let outcome_json (o : Query.outcome) =
  Json.Obj
    [
      ("holds", Json.Bool o.holds);
      ("witness", Json.Arr (List.map path_json o.witness));
      ("counterexample", Json.Arr (List.map path_json o.counterexample));
    ]

let entry_json (e : Query.entry) =
  Json.Obj
    [
      ("policy", Json.Str (Query.to_string e.e_policy));
      ("verdict", Json.Str (Query.verdict_to_string e.e_verdict));
      ("orig", (match e.e_orig with Some o -> outcome_json o | None -> Json.Null));
      ("anon", outcome_json e.e_anon);
    ]

let json_fields ?(entries = true) v =
  let s = v.summary in
  let num n = Json.Num (float_of_int n) in
  [
    ("policies", num s.total);
    ("holds_both", num s.holds_both);
    ("lost", num s.lost);
    ("introduced", num s.introduced);
    ("holds_neither", num s.holds_neither);
    ("fake_only", num s.fake_only);
    ("kept_fraction", Json.Num s.kept_fraction);
  ]
  @
  if entries then [ ("entries", Json.Arr (List.map entry_json v.entries)) ]
  else []

let to_json ?entries v = Json.Obj (json_fields ?entries v)

let record v = Json.round3 (to_json ~entries:false v)
let record_json v = Json.to_string (record v)
