open Netcore
module Smap = Routing.Device.Smap
module Query = Spec.Query

type result = {
  summary : Query.summary;
  entries : Query.entry list option;
}

let c_policies = Telemetry.counter "verify.policies"
let c_lost = Telemetry.counter "verify.lost"

let known_in (snap : Routing.Simulate.snapshot) name =
  Smap.mem name snap.net.routers || Smap.mem name snap.net.hosts

(* The summary of [orig]'s mined specification, pair-major. The pairs
   of one group — one original class pair, and one anonymized class
   pair of the renamed endpoints — have their representatives' traces
   up to the endpoints on either side. So they mine the same policies up
   to the endpoints, and each gets the same verdict ([Query.eval_trace]
   reads no endpoint name): the group's first pair, mined and judged on
   the two representative traces, stands for the group. Every mined
   node occurs in [orig], so no policy is fake-only. *)
let mined_summary ?(rename = fun n -> n) dp_orig dp_anon =
  let module D = Routing.Dataplane in
  let groups = Hashtbl.create 256 in
  let firsts = ref [] in
  let hosts = D.hosts dp_orig in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (String.equal src dst) then begin
            let key =
              ( D.pair_class dp_orig ~src ~dst,
                D.pair_class dp_anon ~src:(rename src) ~dst:(rename dst) )
            in
            match Hashtbl.find_opt groups key with
            | Some n -> incr n
            | None ->
                let n = ref 1 in
                Hashtbl.add groups key n;
                firsts := (src, dst, n) :: !firsts
          end)
        hosts)
    hosts;
  let rep dp ~src ~dst = Option.value ~default:Query.no_trace (D.representative dp ~src ~dst) in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (src, dst, n) ->
      let t_orig = rep dp_orig ~src ~dst in
      let t_anon = rep dp_anon ~src:(rename src) ~dst:(rename dst) in
      List.iter
        (fun p ->
          let orig = Some (Query.eval_trace t_orig p) in
          let v = Query.judge ~orig ~anon:(Query.eval_trace t_anon (Query.map_names rename p)) in
          Hashtbl.replace tally v (!n + Option.value ~default:0 (Hashtbl.find_opt tally v)))
        (Spec.mine_pair (src, dst) t_orig.delivered))
    !firsts;
  Query.summary_of_counts (fun v -> Option.value ~default:0 (Hashtbl.find_opt tally v))

let check ?(entries = false) ?policies ?rename ~(orig : Routing.Simulate.snapshot)
    ~(anon : Routing.Simulate.snapshot) () =
  Telemetry.with_span "verify.check" @@ fun () ->
  let dp_orig = Routing.Simulate.dataplane orig in
  let dp_anon = Routing.Simulate.dataplane anon in
  let listed ps =
    let es =
      Query.differential ?rename ~orig:dp_orig ~anon:dp_anon ~known:(known_in orig) ps
    in
    { summary = Query.summarize es; entries = (if entries then Some es else None) }
  in
  let v =
    match policies with
    | Some ps -> listed ps
    | None when entries -> listed (Spec.mine dp_orig)
    | None -> { summary = mined_summary ?rename dp_orig dp_anon; entries = None }
  in
  Telemetry.add c_policies v.summary.total;
  Telemetry.add c_lost v.summary.lost;
  v

let of_report ?entries ?policies (r : Workflow.report) =
  let rename =
    match r.name_map with
    | [] -> None
    | map ->
        (* Indexed once. [of_seq] keeps a name's last binding, so over
           the reversed map the first wins, as with [List.assoc_opt]. *)
        let tbl = Hashtbl.of_seq (List.to_seq (List.rev map)) in
        Some (fun n -> Option.value ~default:n (Hashtbl.find_opt tbl n))
  in
  check ?entries ?policies ?rename ~orig:r.orig_snapshot ~anon:r.anon_snapshot ()

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

let json_fields v =
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
  match v.entries with
  | Some es -> [ ("entries", Json.Arr (List.map entry_json es)) ]
  | None -> []

let to_json v = Json.Obj (json_fields v)

let record v = Json.round3 (Json.Obj (json_fields { v with entries = None }))
let record_json v = Json.to_string (record v)
