(* ACL (packet filter) semantics in the data plane, and the operational
   check of Theorem B.7: the pipeline preserves all six routing utility
   properties of Appendix B — including black holes and multipath
   inconsistencies caused by access lists. *)

open Routing
module Q = Spec.Query

let check = Alcotest.check
let paths_t = Alcotest.(list (list string))

let config lines = Configlang.Parser.parse_exn (String.concat "\n" lines)

let host name addr gw =
  config
    [
      "hostname " ^ name;
      "interface eth0";
      Printf.sprintf " ip address %s 255.255.255.0" addr;
      "ip default-gateway " ^ gw;
    ]

(* h1 - r1 - r2 - h2, with r2 dropping h1 -> h2 traffic inbound. *)
let line_net ?(acl = []) () =
  [
    config
      [
        "hostname r1";
        "interface Eth0";
        " ip address 10.0.12.1 255.255.255.0";
        "!";
        "interface Eth1";
        " ip address 10.1.1.1 255.255.255.0";
        "!";
        "router ospf 1";
        " network 10.0.0.0 0.255.255.255 area 0";
      ];
    config
      ([
         "hostname r2";
         "interface Eth0";
         " ip address 10.0.12.2 255.255.255.0";
       ]
      @ acl
      @ [
          "!";
          "interface Eth1";
          " ip address 10.2.2.1 255.255.255.0";
          "!";
          "router ospf 1";
          " network 10.0.0.0 0.255.255.255 area 0";
          "!";
          "ip access-list extended NO_H1_TO_H2";
          " deny ip 10.1.1.0 0.0.0.255 10.2.2.0 0.0.0.255";
          " permit ip any any";
        ]);
    host "h1" "10.1.1.10" "10.1.1.1";
    host "h2" "10.2.2.10" "10.2.2.1";
  ]

let acl_binding = [ " ip access-group NO_H1_TO_H2 in" ]

let test_acl_blocks_directionally () =
  let s = Simulate.run_exn (line_net ~acl:acl_binding ()) in
  let t = Dataplane.traceroute s.net s.fibs ~src:"h1" ~dst:"h2" in
  check paths_t "forward blocked" [] t.delivered;
  check Alcotest.bool "filtered recorded" true (t.filtered <> []);
  check Alcotest.bool "not a routing drop" true (t.dropped = []);
  let back = Dataplane.traceroute s.net s.fibs ~src:"h2" ~dst:"h1" in
  check paths_t "reverse delivered" [ [ "h2"; "r2"; "r1"; "h1" ] ] back.delivered

let test_acl_unbound_is_inert () =
  (* The ACL exists but is not attached to any interface. *)
  let s = Simulate.run_exn (line_net ()) in
  let t = Dataplane.traceroute s.net s.fibs ~src:"h1" ~dst:"h2" in
  check paths_t "delivered" [ [ "h1"; "r1"; "r2"; "h2" ] ] t.delivered

let test_acl_undefined_rejected () =
  let bad =
    config
      [
        "hostname rx";
        "interface Eth0";
        " ip address 10.0.0.1 255.255.255.0";
        " ip access-group NOPE in";
      ]
  in
  match Device.compile [ bad ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected undefined access-list error"

let test_acl_roundtrip () =
  let c = List.nth (line_net ~acl:acl_binding ()) 1 in
  let c' = Configlang.Parser.parse_exn (Configlang.Printer.to_string c) in
  check Alcotest.bool "parse-print roundtrip" true (c = c')

(* Square q1-q2-q3, q1-q4-q3 with ECMP; ACL kills only the q2 branch. *)
let square_net () =
  let r name addrs ?(acl_iface = None) () =
    config
      ([ "hostname " ^ name ]
      @ List.concat_map
          (fun (i, a) ->
            [
              Printf.sprintf "interface Eth%d" i;
              Printf.sprintf " ip address %s 255.255.255.0" a;
            ]
            @ (if acl_iface = Some i then [ " ip access-group KILL in" ] else [])
            @ [ "!" ])
          (List.mapi (fun i a -> (i, a)) addrs)
      @ [ "router ospf 1"; " network 10.0.0.0 0.255.255.255 area 0"; "!";
          "ip access-list extended KILL";
          " deny ip 10.10.1.0 0.0.0.255 10.10.3.0 0.0.0.255";
          " permit ip any any" ])
  in
  [
    r "q1" [ "10.0.12.1"; "10.0.41.1"; "10.10.1.1" ] ();
    r "q2" [ "10.0.12.2"; "10.0.23.2" ] ~acl_iface:(Some 0) ();
    r "q3" [ "10.0.23.3"; "10.0.34.3"; "10.10.3.1" ] ();
    r "q4" [ "10.0.34.4"; "10.0.41.4" ] ();
    host "ha" "10.10.1.10" "10.10.1.1";
    host "hc" "10.10.3.10" "10.10.3.1";
  ]

let test_multipath_inconsistency () =
  let s = Simulate.run_exn (square_net ()) in
  let t = Dataplane.traceroute s.net s.fibs ~src:"ha" ~dst:"hc" in
  check paths_t "only the q4 branch delivers"
    [ [ "ha"; "q1"; "q4"; "q3"; "hc" ] ]
    t.delivered;
  check Alcotest.bool "other branch filtered" true (t.filtered <> []);
  let dp = Simulate.dataplane s in
  let props = Spec.mine_properties dp in
  check Alcotest.bool "multipath inconsistency mined" true
    (List.mem (Q.Multipath_inconsistent ("ha", "hc")) props);
  check Alcotest.bool "black hole mined" true (List.mem (Q.Black_hole ("ha", "hc")) props);
  check Alcotest.bool "reverse consistent" false
    (List.mem (Q.Multipath_inconsistent ("hc", "ha")) props)

let test_properties_mining () =
  let s = Simulate.run_exn (line_net ~acl:acl_binding ()) in
  let dp = Simulate.dataplane s in
  let props = Spec.mine_properties dp in
  let has p = List.mem p props in
  check Alcotest.bool "h2 reaches h1" true (has (Q.Reachability ("h2", "h1")));
  check Alcotest.bool "h1 does not reach h2" false (has (Q.Reachability ("h1", "h2")));
  check Alcotest.bool "black hole" true (has (Q.Black_hole ("h1", "h2")));
  check Alcotest.bool "path length mined" true (has (Q.Path_length ("h2", "h1", 2)));
  check Alcotest.bool "waypoint mined" true (has (Q.Waypoint ("h2", "h1", "r1")))

(* Theorem B.7, operationally: anonymize a network containing an ACL black
   hole and check that every property — including the black hole and the
   multipath inconsistency — survives unchanged. *)
(* The Appendix B property sets of a workflow run's two planes, over its
   real hosts. *)
let b7_diff (r : Confmask.Workflow.report) =
  let hosts = Confmask.Workflow.real_hosts r in
  let props snap = Spec.mine_properties ~hosts (Simulate.dataplane snap) in
  Spec.compare_specs ~orig:(props r.orig_snapshot) ~anon:(props r.anon_snapshot)

let theorem_b7 name configs =
  let params = { Confmask.Workflow.default_params with k_r = 4; k_h = 2 } in
  let diff = b7_diff (Confmask.Workflow.run_exn ~params configs) in
  if diff.lost <> [] || diff.introduced <> [] then
    Alcotest.failf "%s: lost %s / gained %s" name
      (String.concat ", " (List.map Q.to_string diff.lost))
      (String.concat ", " (List.map Q.to_string diff.introduced));
  check Alcotest.bool (name ^ ": some properties exist") true (diff.kept <> [])

let test_theorem_b7_blackhole () = theorem_b7 "line+acl" (line_net ~acl:acl_binding ())
let test_theorem_b7_multipath () = theorem_b7 "square+acl" (square_net ())

let test_theorem_b7_fattree () =
  (* A bigger run without ACLs: reachability, lengths, waypoints, ECMP. *)
  theorem_b7 "fattree04" (Netgen.Nets.configs (Netgen.Nets.find "G"))

(* A random WAN with one random deny-ACL: one random host pair's traffic
   dropped inbound at one random router interface. Yields the configs and
   the seed. *)
let acl_net_gen =
  QCheck2.Gen.(
    map
      (fun (n, extra, seed, pick) ->
        let spec =
          Netgen.Wan.waxman ~seed ~name:"rb" ~routers:n ~router_links:(n - 1 + extra)
            ~hosts:(min n 4)
        in
        let configs = Netgen.Emit.emit spec in
        let hosts = List.map fst spec.Netgen.Netspec.hosts in
        let src_h = List.nth hosts (pick mod List.length hosts) in
        let dst_h = List.nth hosts ((pick / 7) mod List.length hosts) in
        let subnet_of h =
          let c = List.find (fun (c : Configlang.Ast.config) -> c.hostname = h) configs in
          Option.get (Configlang.Ast.interface_prefix (List.hd c.interfaces))
        in
        let routers = spec.Netgen.Netspec.routers in
        let victim = List.nth routers ((pick / 3) mod List.length routers) in
        let configs =
          List.map
            (fun (c : Configlang.Ast.config) ->
              if c.hostname <> victim then c
              else
                let acl =
                  {
                    Configlang.Ast.acl_name = "RNDKILL";
                    acl_rules =
                      [
                        {
                          Configlang.Ast.acl_action = Configlang.Ast.Deny;
                          acl_src = Some (subnet_of src_h);
                          acl_dst = Some (subnet_of dst_h);
                        };
                        {
                          Configlang.Ast.acl_action = Configlang.Ast.Permit;
                          acl_src = None;
                          acl_dst = None;
                        };
                      ];
                  }
                in
                let interfaces =
                  match c.interfaces with
                  | i :: rest -> { i with Configlang.Ast.if_acl_in = Some "RNDKILL" } :: rest
                  | [] -> []
                in
                { c with interfaces; acls = [ acl ] })
            configs
        in
        (configs, seed))
      (tup4 (int_range 4 9) (int_range 0 5) (int_bound 50000) (int_bound 1000)))

(* qcheck: inject a random deny-ACL into a random WAN, then check that the
   pipeline preserves every Appendix-B property. *)
let prop_b7_random =
  QCheck2.Test.make ~name:"theorem B.7 on random nets with random ACLs" ~count:10
    acl_net_gen (fun (configs, seed) ->
      let params =
        { Confmask.Workflow.default_params with k_r = 3; k_h = 2; seed }
      in
      match Confmask.Workflow.run ~params configs with
      | Error m -> QCheck2.Test.fail_reportf "pipeline failed: %s" m
      | Ok r ->
          let diff = b7_diff r in
          diff.lost = [] && diff.introduced = [])

(* Miners and evaluator agree on one plane: every policy either miner
   returns holds under [Q.eval], and for every pair each Appendix B family
   holds exactly when it is mined — path length at every length from 1
   to the longest path, waypoint at every router. Returns how many black
   holes were mined, or a description of the first disagreement. *)
let miner_eval_agreement configs =
  let s = Simulate.run_exn configs in
  let dp = Simulate.dataplane s in
  let c2s = Spec.mine dp and props = Spec.mine_properties dp in
  let routers = List.map fst (Device.Smap.bindings s.net.routers) in
  let candidates (src, dst) (t : Dataplane.trace) =
    let longest = List.fold_left (fun m p -> max m (List.length p)) 0 t.delivered in
    [
      Q.Reachability (src, dst); Q.Black_hole (src, dst);
      Q.Multipath_inconsistent (src, dst); Q.Routing_loop (src, dst);
    ]
    @ List.init longest (fun n -> Q.Path_length (src, dst, n + 1))
    @ List.map (fun w -> Q.Waypoint (src, dst, w)) routers
  in
  let holds p = (Q.eval dp p).Q.holds in
  match List.find_opt (fun p -> not (holds p)) (c2s @ props) with
  | Some p -> Error ("mined " ^ Q.to_string p ^ " does not hold")
  | None -> (
      let disagreement =
        Dataplane.fold
          (fun pair t acc ->
            match acc with
            | Some _ -> acc
            | None ->
                List.find_opt (fun p -> holds p <> List.mem p props) (candidates pair t))
          dp None
      in
      match disagreement with
      | Some p ->
          Error (Printf.sprintf "%s: eval %b, mined %b" (Q.to_string p) (holds p) (not (holds p)))
      | None ->
          Ok (List.length (List.filter (function Q.Black_hole _ -> true | _ -> false) props)))

let prop_miner_eval_agreement =
  QCheck2.Test.make ~name:"miners and eval agree on random nets with random ACLs"
    ~count:20 acl_net_gen (fun (configs, _) ->
      match miner_eval_agreement configs with
      | Ok _ -> true
      | Error m -> QCheck2.Test.fail_reportf "%s" m)

(* The agreement above is not vacuous: over a fixed draw of the same
   generator, some net mines a black hole. *)
let test_agreement_sees_black_holes () =
  let rand = Random.State.make [| 7 |] in
  let holes =
    List.map
      (fun (configs, _) ->
        match miner_eval_agreement configs with
        | Ok n -> n
        | Error m -> Alcotest.failf "%s" m)
      (QCheck2.Gen.generate ~rand ~n:20 acl_net_gen)
  in
  check Alcotest.bool "some net mines a black hole" true (List.exists (fun n -> n > 0) holes)

(* qcheck: the FEC-collapsed data plane (one representative trace per
   ordered class pair, renamed when a member pair is read) must agree
   trace for trace with the reference's full H^2 extraction, one plain
   traceroute per pair. Two hosts per router so that host equivalence
   classes are nontrivial and the renaming view actually runs. *)
let traces_equal a b =
  let pairs dp = Dataplane.fold (fun k t acc -> (k, t) :: acc) dp [] in
  pairs a = pairs b

let prop_fec_extraction =
  QCheck2.Test.make ~name:"FEC-collapsed extraction equals full extraction"
    ~count:12
    QCheck2.Gen.(tup3 (int_range 4 10) (int_range 0 4) (int_bound 50000))
    (fun (n, extra, seed) ->
      let spec =
        Netgen.Wan.waxman ~seed ~name:"fq" ~routers:n
          ~router_links:(n - 1 + extra) ~hosts:(2 * n)
      in
      let s = Simulate.run_exn (Netgen.Emit.emit spec) in
      traces_equal (Simulate.dataplane s) (Crucible.Reference.dataplane s))

(* The per-pair view equals the reference's fanned-out traceroutes on
   networks with multi-host classes and on networks with packet filters,
   at path caps small enough that some traces are truncated (so the
   truncated walk is renamed too). *)
let test_view_reference () =
  let fec_nets =
    List.map
      (fun seed ->
        Netgen.Emit.emit
          (Netgen.Wan.waxman ~seed ~name:"fv" ~routers:6 ~router_links:8 ~hosts:12))
      [ 1; 2; 3 ]
  in
  let acl_nets =
    List.map fst (QCheck2.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n:6 acl_net_gen)
  in
  let truncated = ref 0 in
  List.iteri
    (fun k configs ->
      let s = Simulate.run_exn configs in
      List.iter
        (fun max_paths ->
          let dp = Dataplane.extract ~max_paths s.net s.fibs in
          if not (traces_equal dp (Crucible.Reference.dataplane ~max_paths s)) then
            Alcotest.failf "net %d, max_paths %d: the view differs from the reference" k
              max_paths;
          truncated :=
            Dataplane.fold (fun _ (t : Dataplane.trace) n -> if t.truncated then n + 1 else n) dp
              !truncated)
        [ 1; 2; Dataplane.max_paths_default ])
    (fec_nets @ acl_nets);
  check Alcotest.bool "some view is truncated" true (!truncated > 0)

(* qcheck: sharding the per-prefix reverse Dijkstras across a pool must be
   invisible — the FIBs are bit-identical to the sequential fold at every
   job count, not merely route-set equal. Marshal digests catch any
   representation drift that structural equality would mask. *)
let prop_sharded_spf =
  QCheck2.Test.make ~name:"sharded SPF bit-identical at jobs 1/2/4" ~count:8
    QCheck2.Gen.(tup3 (int_range 5 12) (int_range 0 6) (int_bound 50000))
    (fun (n, extra, seed) ->
      let spec =
        Netgen.Wan.waxman ~seed ~name:"sq" ~routers:n
          ~router_links:(n - 1 + extra) ~hosts:(min n 5)
      in
      let configs = Netgen.Emit.emit spec in
      let digest fibs = Digest.string (Marshal.to_string fibs []) in
      let seq = (Simulate.run_exn configs).fibs in
      List.for_all
        (fun jobs ->
          let pool = Netcore.Pool.create ~jobs () in
          let sharded = (Simulate.run_exn ~pool configs).fibs in
          Netcore.Pool.shutdown pool;
          Device.Smap.equal ( = ) seq sharded
          && Digest.equal (digest seq) (digest sharded))
        [ 1; 2; 4 ])

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_b7_random; prop_miner_eval_agreement; prop_fec_extraction; prop_sharded_spf ]

let () =
  Alcotest.run "properties"
    [
      ( "acl",
        [
          Alcotest.test_case "directional blocking" `Quick test_acl_blocks_directionally;
          Alcotest.test_case "unbound ACL inert" `Quick test_acl_unbound_is_inert;
          Alcotest.test_case "undefined ACL rejected" `Quick test_acl_undefined_rejected;
          Alcotest.test_case "parse-print roundtrip" `Quick test_acl_roundtrip;
          Alcotest.test_case "multipath inconsistency" `Quick test_multipath_inconsistency;
        ] );
      ( "appendix-b",
        [
          Alcotest.test_case "mining" `Quick test_properties_mining;
          Alcotest.test_case "theorem B.7 with black hole" `Quick test_theorem_b7_blackhole;
          Alcotest.test_case "theorem B.7 with multipath" `Quick test_theorem_b7_multipath;
          Alcotest.test_case "theorem B.7 on fattree" `Quick test_theorem_b7_fattree;
          Alcotest.test_case "miner/eval agreement sees black holes" `Quick
            test_agreement_sees_black_holes;
        ] );
      ( "dataplane",
        [ Alcotest.test_case "class view = reference (ACLs, truncation)" `Quick test_view_reference ] );
      ("qcheck", qsuite);
    ]
