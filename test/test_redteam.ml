(* The red-team suite: attack interface conventions, the individual
   attacks against real workflow outputs, and the Audit glue (ground
   truth inference, deterministic records). *)

let check = Alcotest.check

let find_score name scores =
  match
    List.find_opt
      (fun (s : Redteam.Attack.score) -> String.equal s.attack name)
      scores
  with
  | Some s -> s
  | None -> Alcotest.failf "attack %s missing from the report" name

(* ---- scoring conventions ---- *)

let test_score_conventions () =
  let s = Redteam.Attack.score ~attack:"x" ~claims:0 ~hits:0 ~relevant:0 () in
  check Alcotest.(float 0.0) "no claims: precision 1" 1.0 s.precision;
  check Alcotest.(float 0.0) "nothing to find: recall 1" 1.0 s.recall;
  let s = Redteam.Attack.score ~attack:"x" ~claims:4 ~hits:1 ~relevant:2 () in
  check Alcotest.(float 1e-9) "precision" 0.25 s.precision;
  check Alcotest.(float 1e-9) "recall" 0.5 s.recall

let test_edge_hits () =
  let truth = [ ("b", "a"); ("c", "d"); ("e", "f") ] in
  let claimed = [ ("a", "b"); ("d", "c"); ("x", "y"); ("a", "b") ] in
  check Alcotest.int "canonicalized intersection" 2
    (Redteam.Attack.edge_hits ~truth ~claimed);
  check Alcotest.int "empty truth" 0
    (Redteam.Attack.edge_hits ~truth:[] ~claimed);
  check Alcotest.int "empty claims" 0
    (Redteam.Attack.edge_hits ~truth ~claimed:[])

(* The link-scoring conventions are load-bearing for the evaluation
   tables: an adversary that accuses nothing is perfectly precise, and a
   network with nothing to find is perfectly recalled. *)
let edge_score truth claimed =
  Redteam.Attack.edge_score ~attack:"x" ~truth ~claimed ()

let test_edge_score_conventions () =
  let s = edge_score [ ("a", "b") ] [] in
  check Alcotest.(float 0.0) "claimed=[]: precision 1.0" 1.0 s.precision;
  check Alcotest.(float 0.0) "claimed=[]: recall 0.0" 0.0 s.recall;
  let s = edge_score [] [ ("a", "b") ] in
  check Alcotest.(float 0.0) "no fake edges: recall 1.0" 1.0 s.recall;
  check Alcotest.(float 0.0) "no fake edges: precision 0.0" 0.0 s.precision;
  let s = edge_score [] [] in
  check Alcotest.(float 0.0) "both empty: precision 1.0" 1.0 s.precision;
  check Alcotest.(float 0.0) "both empty: recall 1.0" 1.0 s.recall

(* Links are undirected: the reversed accusation still counts, and a
   duplicated accusation is deduplicated rather than double-scored. *)
let test_edge_score_canonicalization () =
  let s = edge_score [ ("a", "b") ] [ ("b", "a") ] in
  check Alcotest.int "reversed claim is a hit" 1 s.hits;
  check Alcotest.(float 0.0) "precision" 1.0 s.precision;
  check Alcotest.(float 0.0) "recall" 1.0 s.recall;
  let s =
    edge_score [ ("a", "b"); ("c", "d") ] [ ("a", "b"); ("b", "a"); ("a", "b") ]
  in
  check Alcotest.int "duplicates deduped" 1 s.claims;
  check Alcotest.(float 0.0) "precision after dedup" 1.0 s.precision;
  check Alcotest.(float 0.0) "recall half" 0.5 s.recall

(* ---- signatures and re-identification ---- *)

let test_reid_signature () =
  let open Netcore in
  let g =
    Graph.of_edges [ ("a", "b"); ("a", "c"); ("a", "d"); ("b", "c") ]
  in
  let d, nd = Redteam.Reid.signature g "a" in
  check Alcotest.int "degree" 3 d;
  check Alcotest.(list int) "neighbor degrees sorted desc" [ 2; 2; 1 ] nd;
  check Alcotest.int "identical signatures at distance 0" 0
    (Redteam.Reid.distance (d, nd) (d, nd));
  check Alcotest.bool "own-degree term dominates" true
    (Redteam.Reid.distance (3, [ 1 ]) (4, [ 1 ])
    > Redteam.Reid.distance (3, [ 1 ]) (3, [ 4 ]))

(* ---- address attacks ---- *)

let test_branch_depths () =
  (* 10.0.0.{1,2} share 30+ bits; 10.1.0.1 branches off higher up. The
     multiset must be invariant under a Pan map. *)
  let addrs =
    List.map
      (fun s -> Netcore.Ipv4.to_int (Netcore.Ipv4.of_string_exn s))
      [ "10.0.0.1"; "10.0.0.2"; "10.1.0.1" ]
  in
  let h = Redteam.Addrs.branch_depths (List.sort_uniq compare addrs) in
  check Alcotest.int "two adjacent pairs" 2 (Array.fold_left ( + ) 0 h);
  let key = Pii.Pan.key_of_int 9 in
  let mapped =
    List.sort_uniq compare
      (List.map
         (fun a ->
           Netcore.Ipv4.to_int (Pii.Pan.addr key (Netcore.Ipv4.of_int a)))
         addrs)
  in
  check
    Alcotest.(array int)
    "branch-depth multiset invariant under Pan" h
    (Redteam.Addrs.branch_depths mapped)

(* ---- suite registry ---- *)

let test_registry () =
  check
    Alcotest.(list string)
    "registry order"
    [ "degree_reid"; "filter_pattern"; "no_traffic"; "prefix_structure";
      "key_bruteforce" ]
    Redteam.Suite.names;
  check Alcotest.bool "find known" true
    (Redteam.Suite.find "key_bruteforce" <> None);
  check Alcotest.bool "find unknown" true (Redteam.Suite.find "nope" = None)

(* ---- the suite against real workflow outputs ---- *)

let run_workflow ?pii_key ?(pii = false) () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "A") in
  let params =
    { Confmask.Workflow.default_params with k_r = 2; k_h = 2; pii; pii_key }
  in
  Confmask.Workflow.run_exn ~params configs

let test_audit_plain () =
  let r = run_workflow () in
  let scores = Confmask.Audit.of_report r in
  check Alcotest.int "all five attacks scored" 5 (List.length scores);
  List.iter
    (fun (s : Redteam.Attack.score) ->
      if s.precision < 0.0 || s.precision > 1.0 then
        Alcotest.failf "%s precision out of range" s.attack;
      if s.recall < 0.0 || s.recall > 1.0 then
        Alcotest.failf "%s recall out of range" s.attack)
    scores;
  (* No PII: addresses are shared verbatim, so there is no key to hunt. *)
  let kb = find_score "key_bruteforce" scores in
  check Alcotest.int "no key claims" 0 kb.claims;
  check Alcotest.(float 0.0) "identity map detected" 1.0
    (List.assoc "identity" kb.detail);
  (* The anonymized address set is a superset of the original, so the
     whole original hierarchy is visible. *)
  let ps = find_score "prefix_structure" scores in
  check Alcotest.(float 0.0) "hierarchy fully survives" 1.0 ps.recall;
  (* Grounded re-identification over every original router. *)
  let rid = find_score "degree_reid" scores in
  let routers =
    Netcore.Graph.num_nodes
      (Routing.Device.router_graph r.orig_snapshot.net)
  in
  check Alcotest.int "one guess per original router" routers rid.claims;
  check Alcotest.(float 0.0) "grounded" 1.0 (List.assoc "grounded" rid.detail);
  check Alcotest.bool "top5 rate >= top1 rate" true
    (List.assoc "top5_rate" rid.detail +. 1e-9 >= rid.recall);
  (* Fake-link attacks are grounded against the recorded fake edges. *)
  let fp = find_score "filter_pattern" scores in
  check Alcotest.int "relevant = injected fake edges"
    (List.length (List.sort_uniq compare r.fake_edges))
    fp.relevant

let test_audit_weak_key_recovered () =
  let r = run_workflow ~pii:true ~pii_key:(Pii.Pan.key_of_int 7) () in
  let scores = Confmask.Audit.of_report ~key_range:64 r in
  let kb = find_score "key_bruteforce" scores in
  check Alcotest.(float 0.0) "weak key recovered" 1.0 kb.recall;
  check Alcotest.(float 0.0) "recovered the planted seed" 7.0
    (List.assoc "recovered_seed" kb.detail);
  (* Crypto-PAn's defining leak: renaming and remapping change nothing
     about the hierarchy fingerprint. *)
  let ps = find_score "prefix_structure" scores in
  check Alcotest.(float 0.0) "hierarchy survives the Pan map" 1.0 ps.recall

let test_audit_strong_key_safe () =
  let key =
    match Pii.Pan.key_of_string "0xdeadbeefcafef00d" with
    | Ok k -> k
    | Error m -> Alcotest.fail m
  in
  let r = run_workflow ~pii:true ~pii_key:key () in
  let kb =
    find_score "key_bruteforce" (Confmask.Audit.of_report ~key_range:4096 r)
  in
  check Alcotest.(float 0.0) "64-bit key not recovered" 0.0 kb.recall;
  check Alcotest.int "no false claim" 0 kb.claims

let test_audit_deterministic_record () =
  let r = run_workflow ~pii:true ~pii_key:(Pii.Pan.key_of_int 3) () in
  let a = Confmask.Audit.record_json (Confmask.Audit.of_report ~key_range:64 r) in
  let b = Confmask.Audit.record_json (Confmask.Audit.of_report ~key_range:64 r) in
  check Alcotest.string "byte-identical records" a b;
  check Alcotest.bool "record is a JSON array" true
    (String.length a > 2 && a.[0] = '[')

let test_audit_check_infers_truth () =
  (* The two-directory surface: names are shared (no PII), so Audit.check
     must infer the identity correspondence and the exact fake-edge set —
     and agree byte-for-byte with the report-grounded audit. *)
  let r = run_workflow () in
  let from_report = Confmask.Audit.of_report r in
  let inferred =
    Confmask.Audit.check ~orig_configs:r.orig_configs ~orig:r.orig_snapshot
      ~anon_configs:r.anon_configs ~anon:r.anon_snapshot ()
  in
  check Alcotest.string "inferred ground truth matches recorded"
    (Confmask.Audit.record_json from_report)
    (Confmask.Audit.record_json inferred)

let test_audit_subset () =
  let r = run_workflow () in
  let scores = Confmask.Audit.of_report ~attacks:[ "no_traffic" ] r in
  check Alcotest.int "subset runs one attack" 1 (List.length scores);
  check Alcotest.string "the requested one" "no_traffic"
    (List.hd scores).attack

(* ---- no_traffic against its naive reference ---- *)

(* The link walk as first written: every hop of every delivered path of
   every host pair, as a canonical name pair, into a hashtable. *)
let naive_no_traffic (snap : Routing.Simulate.snapshot) =
  let used = Hashtbl.create 64 in
  Routing.Dataplane.fold
    (fun _ (t : Routing.Dataplane.trace) () ->
      List.iter
        (fun path ->
          let rec edges = function
            | u :: (v :: _ as rest) ->
                Hashtbl.replace used (Redteam.Attack.canonical_edge (u, v)) ();
                edges rest
            | _ -> ()
          in
          edges path)
        t.delivered)
    (Routing.Simulate.dataplane snap) ();
  List.filter
    (fun e -> not (Hashtbl.mem used e))
    (Netcore.Graph.edges (Routing.Device.router_graph snap.net))

let links_t = Alcotest.(list (pair string string))

let test_no_traffic_catalog () =
  List.iter
    (fun id ->
      List.iter
        (fun k_r ->
          let params = { Confmask.Workflow.default_params with k_r; k_h = 2 } in
          let r =
            Confmask.Workflow.run_exn ~params
              (Netgen.Nets.configs (Netgen.Nets.find id))
          in
          check links_t
            (Printf.sprintf "net %s, k_R %d" id k_r)
            (naive_no_traffic r.anon_snapshot)
            (Redteam.Links.no_traffic_links r.anon_snapshot))
        [ 2; 6 ])
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ]

(* A generated network whose first router drops everything it receives:
   the links around it carry no delivered path. *)
let test_no_traffic_acl () =
  let spec = Crucible.Gen.spec ~seed:7 () in
  let victim = List.hd spec.Netgen.Netspec.routers in
  let deny_all =
    {
      Configlang.Ast.acl_name = "DENYALL";
      acl_rules =
        [
          {
            Configlang.Ast.acl_action = Configlang.Ast.Deny;
            acl_src = None;
            acl_dst = None;
          };
        ];
    }
  in
  let configs =
    List.map
      (fun (c : Configlang.Ast.config) ->
        if c.hostname <> victim then c
        else
          {
            c with
            interfaces =
              List.map
                (fun (i : Configlang.Ast.interface) ->
                  { i with if_acl_in = Some deny_all.acl_name })
                c.interfaces;
            acls = deny_all :: c.acls;
          })
      (Netgen.Emit.emit spec)
  in
  let snap = Routing.Simulate.run_exn configs in
  let flagged = Redteam.Links.no_traffic_links snap in
  check Alcotest.bool "the filtered router's links are flagged" true
    (List.exists (fun (u, v) -> u = victim || v = victim) flagged);
  check links_t "equals the naive walk" (naive_no_traffic snap) flagged

let () =
  Alcotest.run "redteam"
    [
      ( "interface",
        [
          Alcotest.test_case "score conventions" `Quick test_score_conventions;
          Alcotest.test_case "edge hits" `Quick test_edge_hits;
          Alcotest.test_case "edge score conventions" `Quick
            test_edge_score_conventions;
          Alcotest.test_case "edge score canonicalization" `Quick
            test_edge_score_canonicalization;
          Alcotest.test_case "reid signature" `Quick test_reid_signature;
          Alcotest.test_case "branch depths" `Quick test_branch_depths;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "audit",
        [
          Alcotest.test_case "plain pair" `Quick test_audit_plain;
          Alcotest.test_case "weak key recovered" `Quick
            test_audit_weak_key_recovered;
          Alcotest.test_case "64-bit key safe" `Quick test_audit_strong_key_safe;
          Alcotest.test_case "deterministic record" `Quick
            test_audit_deterministic_record;
          Alcotest.test_case "check infers ground truth" `Quick
            test_audit_check_infers_truth;
          Alcotest.test_case "attack subset" `Quick test_audit_subset;
          Alcotest.test_case "no_traffic = naive walk on nets A-H" `Quick
            test_no_traffic_catalog;
          Alcotest.test_case "no_traffic = naive walk under ACLs" `Quick
            test_no_traffic_acl;
        ] );
    ]
