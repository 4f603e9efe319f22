(* End-to-end tests of the ConfMask pipeline: the headline invariants are
   (1) functional equivalence — every original host-to-host path preserved
   exactly — and (2) k-degree topology anonymity, on OSPF, RIP, and
   BGP+OSPF networks alike. *)

open Confmask

let check = Alcotest.check

let params ?(k_r = 4) ?(k_h = 2) ?(seed = 42) () =
  { Workflow.default_params with k_r; k_h; seed }

(* The PII stage under a fixed test key. *)
let with_pii p =
  { p with Workflow.pii = true; pii_key = Some (Pii.Pan.key_of_int 42) }

let run_entry ?k_r ?k_h ?seed (e : Netgen.Nets.entry) =
  Workflow.run_exn
    ~params:(params ?k_r ?k_h ?seed ())
    (Netgen.Nets.configs e)

let assert_invariants ?(k_r = 4) name (r : Workflow.report) =
  check Alcotest.bool (name ^ ": functional equivalence") true
    (Workflow.functional_equivalence r);
  let topo = Metrics.topology_of_snapshot r.anon_snapshot in
  check Alcotest.bool
    (Printf.sprintf "%s: %d-degree anonymity (got group %d)" name k_r
       topo.min_degree_group)
    true
    (topo.min_degree_group >= k_r);
  (* Fake hosts were added, k_h - 1 per real host. *)
  let n_real =
    Routing.Device.Smap.cardinal r.orig_snapshot.net.hosts
  in
  check Alcotest.int (name ^ ": fake host count")
    ((r.params.k_h - 1) * n_real)
    (List.length r.fake_hosts);
  (* Fake hosts are reachable from every real host. *)
  let dp = Routing.Simulate.dataplane r.anon_snapshot in
  List.iter
    (fun (fh, _) ->
      List.iter
        (fun src ->
          let t = Option.get (Routing.Dataplane.trace dp ~src ~dst:fh) in
          if t.Routing.Dataplane.delivered = [] then
            Alcotest.failf "%s: fake host %s unreachable from %s" name fh src)
        (Workflow.real_hosts r))
    r.fake_hosts

let test_ospf_enterprise_like () =
  (* The G net (FatTree04) exercises OSPF + ECMP. *)
  let r = run_entry (Netgen.Nets.find "G") in
  assert_invariants "fattree04" r

let test_bgp_nets () =
  List.iter
    (fun id ->
      let r = run_entry (Netgen.Nets.find id) in
      assert_invariants id r)
    [ "A"; "B"; "C"; "CCNP" ]

(* A well-formed OSPF-only router inside a BGP network: net A with a3's
   [router bgp] stanza deleted. A router with no AS is intra-domain, so
   the fake link topology anonymization adds between it and a BGP router
   is an IGP link, and the run succeeds with functional equivalence. (Its
   host ha2 is no longer advertised to the other ASes, so the network is
   not fully reachable and [assert_invariants] does not apply.) *)
let test_bgp_less_router_in_bgp_net () =
  let configs =
    List.map
      (fun (c : Configlang.Ast.config) ->
        if c.hostname = "a3" then { c with bgp = None } else c)
      (Netgen.Nets.configs (Netgen.Nets.find "A"))
  in
  let r = Workflow.run_exn configs in
  check Alcotest.bool "a fake link ends at a3" true
    (List.exists (fun (u, v) -> u = "a3" || v = "a3") r.fake_edges);
  check Alcotest.bool "functional equivalence" true
    (Workflow.functional_equivalence r);
  check Alcotest.bool "k_R-degree anonymity" true
    ((Metrics.topology_of_snapshot r.anon_snapshot).min_degree_group
     >= Workflow.default_params.k_r)

(* Net A with a3 and a4 BGP-less: a fake link between one of them and
   an AS 100 router joins two IGP domains, so neither end may take an
   SFE cost read through the other domain. Every fake link end carries
   exactly the reference distance in its own router's IGP domain, or
   no cost when that domain cannot reach the peer. *)
let test_cross_domain_fake_link_costs () =
  let configs =
    List.map
      (fun (c : Configlang.Ast.config) ->
        if c.hostname = "a3" || c.hostname = "a4" then { c with bgp = None } else c)
      (Netgen.Nets.configs (Netgen.Nets.find "A"))
  in
  let r = Workflow.run_exn ~params:(params ~k_r:6 ~seed:1 ()) configs in
  let net = r.orig_snapshot.net in
  let domains = Routing.Simulate.igp_domains net in
  let domain_of u =
    List.find (fun (d : Routing.Simulate.igp_domain) -> d.dom_scope u) domains
  in
  let cost_toward u v =
    match Routing.Device.find_adj r.anon_snapshot.net u v with
    | None -> Alcotest.failf "fake link %s-%s is not in the shared network" u v
    | Some a ->
        let c = List.find (fun (c : Configlang.Ast.config) -> c.hostname = u) r.anon_configs in
        (List.find
           (fun (i : Configlang.Ast.interface) -> i.if_name = a.a_out_iface.ifc_name)
           c.interfaces)
          .if_cost
  in
  check Alcotest.bool "a fake link joins two IGP domains" true
    (List.exists
       (fun (u, v) -> (domain_of u).dom_key <> (domain_of v).dom_key)
       r.fake_edges);
  List.iter
    (fun (u, v) ->
      List.iter
        (fun (u, v) ->
          let want =
            Routing.Device.Smap.find_opt v
              (Crucible.Reference.min_cost ~scope:(domain_of u).dom_scope net u)
          in
          check
            Alcotest.(option int)
            (Printf.sprintf "cost %s -> %s" u v)
            want (cost_toward u v))
        [ (u, v); (v, u) ])
    r.fake_edges

let test_rip_net () =
  let configs = Netgen.Emit.emit (Netgen.Smallnets.rip_lab ()) in
  let r = Workflow.run_exn ~params:(params ()) configs in
  assert_invariants "rip lab" r

let test_eigrp_net () =
  let configs = Netgen.Emit.emit (Netgen.Smallnets.eigrp_lab ()) in
  let r = Workflow.run_exn ~params:(params ()) configs in
  assert_invariants "eigrp lab" r

let test_bgp_with_route_maps () =
  (* Inject an inbound local-preference policy into net C and check the
     pipeline still achieves functional equivalence around it. *)
  let configs =
    List.map
      (fun (c : Configlang.Ast.config) ->
        if c.hostname <> "w2" then c
        else
          let open Configlang.Ast in
          let rm =
            {
              rm_name = "PREFX";
              rm_clauses =
                [ { rm_seq = 10; rm_action = Permit; rm_set_local_pref = Some 150 } ];
            }
          in
          let bgp =
            Option.map
              (fun b ->
                {
                  b with
                  bgp_neighbors =
                    List.map
                      (fun n ->
                        if n.nb_remote_as <> b.bgp_as then
                          { n with nb_route_map_in = Some "PREFX" }
                        else n)
                      b.bgp_neighbors;
                })
              c.bgp
          in
          { c with bgp; route_maps = [ rm ] })
      (Netgen.Nets.configs (Netgen.Nets.find "C"))
  in
  let r = Workflow.run_exn ~params:(params ()) configs in
  assert_invariants "backbone + route-maps" r

let test_wan_net () =
  let r = run_entry (Netgen.Nets.find "D") in
  assert_invariants "bics" r

let test_kr6 () =
  let r = run_entry ~k_r:6 (Netgen.Nets.find "A") in
  assert_invariants ~k_r:6 "enterprise kr=6" r

let test_kh4 () =
  let r = run_entry ~k_h:4 (Netgen.Nets.find "C") in
  assert_invariants "backbone kh=4" r

let test_kh1_no_fake_hosts () =
  let r = run_entry ~k_h:1 (Netgen.Nets.find "C") in
  check Alcotest.int "no fake hosts" 0 (List.length r.fake_hosts);
  check Alcotest.int "no anonymity filters" 0 r.anon_filters_added;
  check Alcotest.bool "functional equivalence" true
    (Workflow.functional_equivalence r)

let test_fake_routers_with_pii () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "G") in
  let p =
    with_pii { (params ~k_r:4 ()) with Workflow.fake_routers = 2 }
  in
  let r = Workflow.run_exn ~params:p configs in
  (* Scrubbed + extended network still compiles and routes fully. *)
  let dp = Routing.Simulate.dataplane r.anon_snapshot in
  let hosts =
    List.map fst (Routing.Device.Smap.bindings r.anon_snapshot.net.hosts)
  in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> d && Routing.Dataplane.paths dp ~src:s ~dst:d = []
          then Alcotest.failf "%s -> %s unreachable" s d)
        hosts)
    hosts

let test_deterministic () =
  let run () =
    let r = run_entry ~seed:7 (Netgen.Nets.find "A") in
    List.map snd (Workflow.anon_texts r)
  in
  check Alcotest.bool "same seed, same output" true (run () = run ())

let test_seed_changes_output () =
  let texts seed =
    List.map snd (Workflow.anon_texts (run_entry ~seed (Netgen.Nets.find "G")))
  in
  check Alcotest.bool "different seed, different anonymization" true
    (texts 1 <> texts 2)

let test_append_only () =
  (* Every original interface, network statement and neighbor must still
     be present, verbatim, in the anonymized config. *)
  let r = run_entry (Netgen.Nets.find "B") in
  List.iter
    (fun (o : Configlang.Ast.config) ->
      match
        List.find_opt
          (fun (a : Configlang.Ast.config) -> a.hostname = o.hostname)
          r.anon_configs
      with
      | None -> Alcotest.failf "device %s disappeared" o.hostname
      | Some a ->
          List.iter
            (fun (i : Configlang.Ast.interface) ->
              if not (List.mem i a.interfaces) then
                Alcotest.failf "%s: interface %s modified" o.hostname i.if_name)
            o.interfaces;
          (match (o.ospf, a.ospf) with
          | Some oo, Some ao ->
              List.iter
                (fun n ->
                  if not (List.mem n ao.ospf_networks) then
                    Alcotest.failf "%s: ospf network removed" o.hostname)
                oo.ospf_networks
          | None, _ -> ()
          | Some _, None -> Alcotest.failf "%s: ospf process removed" o.hostname);
          match (o.bgp, a.bgp) with
          | Some ob, Some ab ->
              List.iter
                (fun (n : Configlang.Ast.neighbor) ->
                  if
                    not
                      (List.exists
                         (fun (m : Configlang.Ast.neighbor) ->
                           Netcore.Ipv4.equal m.nb_addr n.nb_addr
                           && m.nb_remote_as = n.nb_remote_as)
                         ab.bgp_neighbors)
                  then Alcotest.failf "%s: bgp neighbor removed" o.hostname)
                ob.bgp_neighbors
          | None, _ -> ()
          | Some _, None -> Alcotest.failf "%s: bgp process removed" o.hostname)
    r.orig_configs

let test_fake_prefixes_disjoint () =
  let r = run_entry (Netgen.Nets.find "A") in
  let orig_prefixes = Edits.used_prefixes r.orig_configs in
  let dp_hosts = r.anon_snapshot.net.hosts in
  List.iter
    (fun (fh, _) ->
      let hp =
        Routing.Device.host_prefix (Routing.Device.Smap.find fh dp_hosts)
      in
      if List.exists (Netcore.Prefix.overlaps hp) orig_prefixes then
        Alcotest.failf "fake host %s prefix %s overlaps the original network" fh
          (Netcore.Prefix.to_string hp))
    r.fake_hosts

let test_route_anonymity_improves () =
  let r = run_entry ~k_r:6 ~k_h:2 (Netgen.Nets.find "C") in
  let nr_orig =
    Metrics.route_anonymity (Routing.Simulate.dataplane r.orig_snapshot)
  in
  let nr_anon =
    Metrics.route_anonymity (Routing.Simulate.dataplane r.anon_snapshot)
  in
  check Alcotest.bool
    (Printf.sprintf "anon N_r (%.2f) > orig N_r (%.2f)" nr_anon.nr_avg
       nr_orig.nr_avg)
    true
    (nr_anon.nr_avg > nr_orig.nr_avg)

let test_kept_paths_100_percent () =
  let r = run_entry (Netgen.Nets.find "G") in
  let frac =
    Metrics.kept_paths_fraction
      ~orig:(Routing.Simulate.dataplane r.orig_snapshot)
      ~anon:(Routing.Simulate.dataplane r.anon_snapshot)
      ~hosts:(Workflow.real_hosts r)
  in
  check (Alcotest.float 1e-9) "all paths kept exactly" 1.0 frac

let test_config_utility_bounds () =
  let r = run_entry (Netgen.Nets.find "B") in
  let uc = Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs in
  check Alcotest.bool (Printf.sprintf "U_C = %.3f in (0, 1)" uc) true
    (uc > 0.0 && uc < 1.0)

let test_pii_addon () =
  let r =
    Workflow.run_exn
      ~params:(with_pii (params ()))
      (Netgen.Nets.configs (Netgen.Nets.find "A"))
  in
  (* Scrubbed configs still compile and give full reachability. *)
  let dp = Routing.Simulate.dataplane r.anon_snapshot in
  let hosts =
    List.map fst (Routing.Device.Smap.bindings r.anon_snapshot.net.hosts)
  in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> d && Routing.Dataplane.paths dp ~src:s ~dst:d = []
          then Alcotest.failf "pii: %s -> %s unreachable" s d)
        hosts)
    hosts;
  (* No original hostname survives. *)
  let orig_names =
    List.map (fun (c : Configlang.Ast.config) -> c.hostname) r.orig_configs
  in
  List.iter
    (fun (c : Configlang.Ast.config) ->
      if List.mem c.hostname orig_names then
        Alcotest.failf "pii: hostname %s leaked" c.hostname)
    r.anon_configs

(* A job is scrubbed exactly when it carries a key: a switch without a
   key, or a key without the switch, is an input error. *)
let test_pii_needs_key () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "A") in
  let key = (with_pii (params ())).pii_key in
  List.iter
    (fun (pii, pii_key) ->
      match Workflow.run ~params:{ (params ()) with pii; pii_key } configs with
      | Ok _ ->
          Alcotest.failf "pii = %b with pii_key = %b accepted" pii
            (Option.is_some pii_key)
      | Error _ -> ())
    [ (true, None); (false, key) ]

(* The check traces only real-host pairs on a fresh anonymized snapshot
   (nothing memoized its plane), and must still see one real host's
   route denied at the router its source host hangs off. The nets are
   OSPF-only: under BGP the denied OSPF route can give way to an iBGP
   route over the same path. *)
let test_equivalence_sees_a_denied_host_route () =
  List.iter
    (fun id ->
      let r = run_entry (Netgen.Nets.find id) in
      check Alcotest.bool (id ^ ": equivalent as produced") true
        (Workflow.functional_equivalence r);
      let net = r.anon_snapshot.net in
      let hosts = Workflow.real_hosts r in
      let prefix h =
        Routing.Device.host_prefix (Routing.Device.Smap.find h net.hosts)
      in
      let denial =
        List.find_map
          (fun src ->
            let router, _ = List.hd (Routing.Device.Smap.find src net.attachments) in
            let fib = Routing.Device.Smap.find router r.anon_snapshot.fibs in
            List.find_map
              (fun dst ->
                match Routing.Fib.find fib (prefix dst) with
                | Some { rt_nexthops = nh :: _; _ } when dst <> src ->
                    Some (router, nh.Routing.Fib.nh_router, prefix dst)
                | _ -> None)
              hosts)
          hosts
      in
      match denial with
      | None -> Alcotest.failf "%s: no real host route to deny" id
      | Some (router, toward, hp) ->
          let anon_configs = Attach.deny r.anon_configs net ~router ~toward hp in
          let r' =
            { r with anon_configs; anon_snapshot = Routing.Simulate.run_exn anon_configs }
          in
          check Alcotest.bool
            (Printf.sprintf "%s: %s denied at %s toward %s breaks equivalence" id
               (Netcore.Prefix.to_string hp) router toward)
            false
            (Workflow.functional_equivalence r'))
    [ "D"; "G" ]

(* ---- §9 extension: network scale obfuscation ---- *)

let test_fake_routers () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "G") in
  let p = { (params ~k_r:4 ()) with Workflow.fake_routers = 3 } in
  let r = Workflow.run_exn ~params:p configs in
  check Alcotest.int "three fake routers" 3 (List.length r.fake_router_names);
  check Alcotest.bool "functional equivalence" true
    (Workflow.functional_equivalence r);
  (* Fake routers participate in the anonymized topology and carry k-degree
     anonymity like everyone else. *)
  let g = Routing.Device.router_graph r.anon_snapshot.net in
  List.iter
    (fun fr ->
      check Alcotest.bool (fr ^ " present") true (Netcore.Graph.mem_node fr g);
      check Alcotest.bool (fr ^ " connected") true (Netcore.Graph.degree fr g >= 2))
    r.fake_router_names;
  check Alcotest.bool "k-anonymous including fakes" true
    ((Metrics.topology_of_snapshot r.anon_snapshot).min_degree_group >= 4);
  (* Each fake router's own host is reachable from real hosts. *)
  let dp = Routing.Simulate.dataplane r.anon_snapshot in
  let src = List.hd (Workflow.real_hosts r) in
  List.iter
    (fun fr ->
      let t = Option.get (Routing.Dataplane.trace dp ~src ~dst:(fr ^ "-h1")) in
      check Alcotest.bool (fr ^ "-h1 reachable") true
        (t.Routing.Dataplane.delivered <> []))
    r.fake_router_names

let test_fake_routers_name_scheme () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "D") in
  let orig = Routing.Simulate.run_exn configs in
  match
    Node_anon.add ~rng:(Netcore.Rng.create 1) ~count:2 ~orig configs
  with
  | Error m -> Alcotest.fail m
  | Ok n ->
      List.iter
        (fun fr ->
          check Alcotest.bool (fr ^ " blends in") true
            (String.length fr > 5 && String.sub fr 0 5 = "bics-"))
        n.fake_routers

let test_fake_routers_rejected_on_bgp () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "A") in
  let orig = Routing.Simulate.run_exn configs in
  match Node_anon.add ~rng:(Netcore.Rng.create 1) ~count:1 ~orig configs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection on BGP networks"

(* ---- Strawman baselines ---- *)

let topo_stage entry k_r seed =
  let configs = Netgen.Nets.configs entry in
  let orig = Routing.Simulate.run_exn configs in
  let rng = Netcore.Rng.create seed in
  let t = Topo_anon.anonymize ~rng ~k:k_r ~orig configs in
  (orig, t)

let test_strawman1_restores () =
  let orig, t = topo_stage (Netgen.Nets.find "A") 4 42 in
  match Strawman.strawman1 ~orig ~fake_edges:t.fake_edges t.configs with
  | Ok o ->
      let snap = Routing.Simulate.run_exn o.configs in
      check Alcotest.bool "fibs restored" true
        (Route_equiv.fib_equal_on_hosts ~orig snap);
      check Alcotest.bool "many filters" true (o.filters_added > 0)
  | Error m -> Alcotest.fail m

let test_strawman2_restores () =
  let orig, t = topo_stage (Netgen.Nets.find "A") 4 42 in
  match Strawman.strawman2 ~orig ~fake_edges:t.fake_edges t.configs with
  | Ok o ->
      let snap = Routing.Simulate.run_exn o.configs in
      let dp0 = Routing.Simulate.dataplane orig in
      let dp1 = Routing.Simulate.dataplane snap in
      let hosts = List.map fst (Routing.Device.Smap.bindings orig.net.hosts) in
      check Alcotest.bool "paths restored" true
        (Routing.Dataplane.equal_on ~hosts dp0 dp1)
  | Error m -> Alcotest.fail m

let test_strawman_filter_counts () =
  (* Strawman 1 must inject more filters than Algorithm 1 (Figure 10
     right). *)
  let orig, t = topo_stage (Netgen.Nets.find "B") 6 42 in
  check Alcotest.bool "fake edges exist" true (t.fake_edges <> []);
  let s1 =
    match Strawman.strawman1 ~orig ~fake_edges:t.fake_edges t.configs with
    | Ok o -> o.filters_added
    | Error m -> Alcotest.fail m
  in
  let alg1 =
    match Route_equiv.fix ~orig ~fake_edges:t.fake_edges t.configs with
    | Ok o -> o.filters_added
    | Error m -> Alcotest.fail m
  in
  check Alcotest.bool
    (Printf.sprintf "strawman1 (%d) > algorithm 1 (%d)" s1 alg1)
    true (s1 > alg1)

(* ---- Edits unit behaviors ---- *)

let test_edits_deny_roundtrip () =
  let open Configlang in
  let c =
    Parser.parse_exn
      "hostname r1\ninterface Eth0\n ip address 10.0.0.1 255.255.255.0\nrouter ospf 1\n network 10.0.0.0 0.255.255.255 area 0"
  in
  let p = Netcore.Prefix.of_string_exn "10.4.4.0/24" in
  let p2 = Netcore.Prefix.of_string_exn "10.5.5.0/24" in
  let c1 = Edits.deny_on_iface c ~iface:"Eth0" p in
  let c1 = Edits.deny_on_iface c1 ~iface:"Eth0" p2 in
  let c1 = Edits.deny_on_iface c1 ~iface:"Eth0" p in
  (* idempotent *)
  (match Ast.find_prefix_list c1 "DL-Eth0" with
  | Some pl -> check Alcotest.int "two denies + catchall" 3 (List.length pl.pl_rules)
  | None -> Alcotest.fail "list missing");
  let c2 = Edits.undeny_on_iface c1 ~iface:"Eth0" p in
  (match Ast.find_prefix_list c2 "DL-Eth0" with
  | Some pl -> check Alcotest.int "one deny + catchall" 2 (List.length pl.pl_rules)
  | None -> Alcotest.fail "list should remain");
  let c3 = Edits.undeny_on_iface c2 ~iface:"Eth0" p2 in
  check Alcotest.bool "list dropped" true (Ast.find_prefix_list c3 "DL-Eth0" = None);
  match c3.ospf with
  | Some o -> check Alcotest.int "binding dropped" 0 (List.length o.ospf_distribute_in)
  | None -> Alcotest.fail "ospf vanished"

let test_fresh_iface_name () =
  let open Configlang in
  let c =
    Parser.parse_exn
      "hostname r1\ninterface Eth0\n ip address 10.0.0.1 255.255.255.0\n!\ninterface Eth3\n ip address 10.0.1.1 255.255.255.0"
  in
  let n = Edits.fresh_iface_name c in
  check Alcotest.bool "fresh name unused" true (Ast.find_interface c n = None)

(* ---- qcheck: pipeline invariant on random OSPF networks ---- *)

let gen_netspec =
  let open QCheck2.Gen in
  let* n = int_range 5 10 in
  let* extra = int_range 0 6 in
  let* hosts_n = int_range 2 4 in
  let* seed = int_bound 10000 in
  return (n, extra, hosts_n, seed)

let spec_of (n, extra, hosts_n, seed) =
  Netgen.Wan.waxman ~seed ~name:"rnd" ~routers:n
    ~router_links:(n - 1 + extra)
    ~hosts:hosts_n

let prop_strawman2_equivalence =
  QCheck2.Test.make ~name:"strawman 2 restores the data plane on random nets"
    ~count:8 gen_netspec (fun input ->
      let spec = spec_of input in
      let configs = Netgen.Emit.emit spec in
      let _, _, _, seed = input in
      let orig = Routing.Simulate.run_exn configs in
      let rng = Netcore.Rng.create seed in
      let t = Topo_anon.anonymize ~rng ~k:3 ~orig configs in
      match Strawman.strawman2 ~orig ~fake_edges:t.fake_edges t.configs with
      | Error m -> QCheck2.Test.fail_reportf "strawman2 failed: %s" m
      | Ok o ->
          let snap = Routing.Simulate.run_exn o.configs in
          let hosts =
            List.map fst (Routing.Device.Smap.bindings orig.net.hosts)
          in
          Routing.Dataplane.equal_on ~hosts
            (Routing.Simulate.dataplane orig)
            (Routing.Simulate.dataplane snap))

let prop_high_noise_safe =
  (* Even an absurd noise coefficient must not break real-host forwarding:
     Algorithm 2's filters only name fake prefixes. *)
  QCheck2.Test.make ~name:"p = 0.9 still preserves the real data plane" ~count:8
    gen_netspec (fun input ->
      let spec = spec_of input in
      let configs = Netgen.Emit.emit spec in
      let _, _, _, seed = input in
      match
        Workflow.run
          ~params:{ (params ~k_r:3 ~k_h:2 ~seed ()) with Workflow.noise = 0.9 }
          configs
      with
      | Error m -> QCheck2.Test.fail_reportf "pipeline failed: %s" m
      | Ok r -> Workflow.functional_equivalence r)

let prop_pipeline_equivalence =
  QCheck2.Test.make ~name:"pipeline preserves data plane on random nets"
    ~count:12 gen_netspec (fun input ->
      let spec = spec_of input in
      let configs = Netgen.Emit.emit spec in
      let _, _, _, seed = input in
      match
        Workflow.run ~params:(params ~k_r:3 ~k_h:2 ~seed ()) configs
      with
      | Error m -> QCheck2.Test.fail_reportf "pipeline failed: %s" m
      | Ok r ->
          Workflow.functional_equivalence r
          && (Metrics.topology_of_snapshot r.anon_snapshot).min_degree_group >= 3)

let prop_pool_determinism =
  (* The fixpoints shard their scans and reachability walks across the
     pool; the job count must be unobservable. Runs both stage-2
     algorithms end to end and compares the printed configs plus every
     iteration/filter count. *)
  QCheck2.Test.make ~name:"anonymized output identical at jobs 1/2/4"
    ~count:6 gen_netspec (fun input ->
      let spec = spec_of input in
      let configs = Netgen.Emit.emit spec in
      let _, _, _, seed = input in
      let orig = Routing.Simulate.run_exn configs in
      let rng = Netcore.Rng.create seed in
      let topo = Topo_anon.anonymize ~rng ~k:3 ~orig configs in
      let stage jobs =
        let pool = Netcore.Pool.create ~jobs () in
        Fun.protect
          ~finally:(fun () -> Netcore.Pool.shutdown pool)
          (fun () ->
            let eng = Routing.Engine.of_configs_exn ~pool topo.configs in
            match
              Route_equiv.fix ~engine:eng ~orig ~fake_edges:topo.fake_edges
                topo.configs
            with
            | Error m -> Error ("equiv: " ^ m)
            | Ok e -> (
                let rng2 = Netcore.Rng.create (seed + 7) in
                match
                  Route_anon.anonymize ~rng:rng2 ~k_h:2 ~p:0.3
                    ~engine:e.engine e.configs
                with
                | Error m -> Error ("anon: " ^ m)
                | Ok a ->
                    Ok
                      ( List.map Configlang.Printer.to_string a.configs,
                        e.iterations,
                        e.filters_added,
                        a.filters_added,
                        a.filters_removed )))
      in
      let base = stage 1 in
      List.for_all
        (fun jobs ->
          stage jobs = base
          || QCheck2.Test.fail_reportf "output at jobs=%d differs from jobs=1"
               jobs)
        [ 2; 4 ])

(* ---- Algorithm 2's reachability walk ---- *)

module Sset = Set.Make (String)

(* The naive reference for [Route_anon.reachable_routers]: the
   string-keyed walk — one [Fib.lookup] per visited router, a name-keyed
   memo and a visiting set — with owners found by scanning every
   interface. *)
let naive_reachable (snap : Routing.Simulate.snapshot) fp =
  let owners =
    Routing.Device.Smap.fold
      (fun rname (r : Routing.Device.router) acc ->
        if
          List.exists
            (fun i -> Netcore.Prefix.equal (Routing.Device.ifc_prefix i) fp)
            r.r_ifaces
        then Sset.add rname acc
        else acc)
      snap.net.routers Sset.empty
  in
  let probe = Netcore.Prefix.host fp 10 in
  let memo : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let rec delivers r visiting =
    match Hashtbl.find_opt memo r with
    | Some b -> (b, true)
    | None ->
        if Sset.mem r owners then begin
          Hashtbl.replace memo r true;
          (true, true)
        end
        else if Sset.mem r visiting then (false, false)
        else begin
          let b, pure =
            match Routing.Device.Smap.find_opt r snap.fibs with
            | None -> (false, true)
            | Some fib -> (
                match Routing.Fib.lookup fib probe with
                | None -> (false, true)
                | Some route when route.rt_nexthops = [] -> (false, true)
                | Some route ->
                    let visiting = Sset.add r visiting in
                    List.fold_left
                      (fun (ok, pure) (nh : Routing.Fib.nexthop) ->
                        if not ok then (ok, pure)
                        else
                          let b, p = delivers nh.nh_router visiting in
                          (b, pure && p))
                      (true, true) route.rt_nexthops)
          in
          if pure then Hashtbl.replace memo r b;
          (b, pure)
        end
  in
  Routing.Device.Smap.fold
    (fun rname _ acc ->
      if fst (delivers rname Sset.empty) then rname :: acc else acc)
    snap.net.routers []
  |> List.sort String.compare

let walks_t = Alcotest.(list (pair string (list string)))

let check_walks name snap fps =
  let show = List.map (fun (fp, rs) -> (Netcore.Prefix.to_string fp, rs)) in
  check walks_t name
    (show (List.map (fun fp -> (fp, naive_reachable snap fp)) fps))
    (show (Route_anon.reachable_routers snap fps))

(* Deny filters planted on the fake-prefix FIB rows like Algorithm 2's
   noise, denser than the default so that many walks dead-end. *)
let plant_noise ~seed (snap : Routing.Simulate.snapshot) configs fps =
  let rng = Netcore.Rng.create seed in
  let edits =
    List.concat_map
      (fun (r, fib) ->
        List.concat_map
          (fun fp ->
            match Routing.Fib.find fib fp with
            | Some route ->
                List.filter_map
                  (fun nxt ->
                    if Netcore.Rng.bool rng ~p:0.3 then
                      Option.map
                        (fun a -> (r, fun c -> Attach.deny_at c a fp))
                        (Attach.point snap.net r nxt)
                    else None)
                  (Routing.Fib.nexthop_names route.rt_nexthops)
            | None -> [])
          fps)
      (Routing.Device.Smap.bindings snap.fibs)
  in
  Edits.update_all configs edits

let test_walks_match_naive_on_catalog () =
  let broken = ref 0 in
  List.iter
    (fun id ->
      List.iter
        (fun k_r ->
          let r =
            Workflow.run_exn
              ~params:{ (params ~k_r ()) with noise = 0.0 }
              (Netgen.Nets.configs (Netgen.Nets.find id))
          in
          let snap = r.anon_snapshot in
          let fps =
            List.map
              (fun (fh, _) ->
                Routing.Device.host_prefix
                  (Routing.Device.Smap.find fh snap.net.hosts))
              r.fake_hosts
          in
          let name = Printf.sprintf "net %s k_R %d" id k_r in
          check_walks (name ^ ": fake hosts") snap fps;
          let noisy =
            Routing.Simulate.run_exn (plant_noise ~seed:k_r snap r.anon_configs fps)
          in
          check_walks (name ^ ": noise planted") noisy fps;
          if
            Route_anon.reachable_routers snap fps
            <> Route_anon.reachable_routers noisy fps
          then incr broken)
        [ 2; 6 ])
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ];
  (* The planted filters must break some walks, or the second check
     would only repeat the first. *)
  check Alcotest.bool "noise broke walks" true (!broken > 0)

(* Algorithm 2's postcondition: after repair, every fake prefix is
   reachable from every router that reached it before any noise. Fake
   host names and prefixes do not depend on the noise coefficient, so
   the noise-0 output of the same seed is the noise-free baseline. *)
let test_repair_keeps_reachability () =
  let rolled_back = ref 0 in
  List.iter
    (fun id ->
      List.iter
        (fun k_r ->
          let run noise =
            Workflow.run_exn
              ~params:{ (params ~k_r ()) with noise }
              (Netgen.Nets.configs (Netgen.Nets.find id))
          in
          let fake_prefixes (r : Workflow.report) =
            List.map
              (fun (fh, _) ->
                ( fh,
                  Routing.Device.host_prefix
                    (Routing.Device.Smap.find fh r.anon_snapshot.net.hosts) ))
              r.fake_hosts
          in
          let clean = run 0.0 in
          let fps = fake_prefixes clean in
          let before =
            List.map (fun (_, fp) -> (fp, naive_reachable clean.anon_snapshot fp)) fps
          in
          List.iter
            (fun noise ->
              let name = Printf.sprintf "net %s k_R %d noise %g" id k_r noise in
              let noisy = run noise in
              rolled_back := !rolled_back + noisy.anon_filters_removed;
              if fake_prefixes noisy <> fps then
                Alcotest.failf "%s: fake hosts depend on the noise" name;
              List.iter
                (fun (fp, routers) ->
                  let now = naive_reachable noisy.anon_snapshot fp in
                  match List.filter (fun r -> not (List.mem r now)) routers with
                  | [] -> ()
                  | lost ->
                      Alcotest.failf "%s: %s lost %s" name
                        (Netcore.Prefix.to_string fp) (String.concat "," lost))
                before)
            [ 0.1; 0.3 ])
        [ 2; 6 ])
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ];
  (* Some filter must have broken a walk and been rolled back, or the
     check above would only compare unbroken outputs. *)
  check Alcotest.bool "repair rolled back filters" true (!rolled_back > 0)

(* r0 - r1 - r2 - r3, OSPF throughout; r3 owns 10.9.9.0/24, but r1 and
   r2 point static routes for it at each other. Every walk toward it
   through r1 or r2 hits the cycle check, and those impure results must
   not be memoized. *)
let static_loop_net () =
  let config lines = Configlang.Parser.parse_exn (String.concat "\n" lines) in
  let ospf = [ "router ospf 1"; " network 10.0.0.0 0.255.255.255 area 0" ] in
  let iface name addr =
    [ "interface " ^ name; " ip address " ^ addr ^ " 255.255.255.0"; "!" ]
  in
  [
    config ([ "hostname r0" ] @ iface "Eth0" "10.0.1.1" @ ospf);
    config
      ([ "hostname r1" ] @ iface "Eth0" "10.0.1.2" @ iface "Eth1" "10.0.2.1"
      @ [ "ip route 10.9.9.0 255.255.255.0 10.0.2.2" ] @ ospf);
    config
      ([ "hostname r2" ] @ iface "Eth0" "10.0.2.2" @ iface "Eth1" "10.0.3.1"
      @ [ "ip route 10.9.9.0 255.255.255.0 10.0.2.1" ] @ ospf);
    config ([ "hostname r3" ] @ iface "Eth0" "10.0.3.2" @ iface "Eth1" "10.9.9.1" @ ospf);
  ]

let test_walks_match_naive_on_static_loop () =
  let snap = Routing.Simulate.run_exn (static_loop_net ()) in
  let fps =
    List.map Netcore.Prefix.of_string_exn
      [ "10.9.9.0/24"; "10.0.3.0/24"; "10.0.1.0/24" ]
  in
  check_walks "static loop" snap fps;
  check walks_t "loop delivers only at the owner"
    [ ("10.9.9.0/24", [ "r3" ]) ]
    (List.map
       (fun (fp, rs) -> (Netcore.Prefix.to_string fp, rs))
       (Route_anon.reachable_routers snap [ List.hd fps ]))

(* ---- golden outputs ---- *)

(* Digests of the anonymized configurations of the catalog networks at
   k_R = 6, k_H = 2 and the default seed. Any change to the anonymized
   bytes — a reordered filter, a renamed interface — fails here; update
   a digest only for an intended change of output. *)
let golden_digests =
  [
    ("A", "b22a614bff5a78ff34b635cb9a084151");
    ("B", "c90f01dae39e538f17d76d0e5f00eb83");
    ("C", "9d74ea9037c97c4179015319208c6cae");
    ("D", "d1873295b6ae9760246b8cc031e6ba27");
    ("E", "c04ae432a86f22428d1e9d11c1d64d99");
    ("F", "411ced90762283cecca6e7384cacbffb");
    ("G", "63bfa14d7b6dfeff4a98b0650893cdfb");
    ("H", "29f112e6049c2043a51c46d85c2067fc");
  ]

let test_golden_outputs () =
  List.iter
    (fun (id, expected) ->
      let r =
        run_entry ~k_r:6 ~k_h:2 ~seed:Workflow.default_params.seed
          (Netgen.Nets.find id)
      in
      let text =
        String.concat ""
          (List.map
             (fun (h, t) -> h ^ "\000" ^ t ^ "\000")
             (Workflow.anon_texts r))
      in
      check Alcotest.string ("net " ^ id) expected
        (Digest.to_hex (Digest.string text)))
    golden_digests

(* The same digests on the fake-router path (§9 extension, two fake
   routers) for two OSPF-only catalog nets. Growing the router set makes
   the engine take its full-SPF fallback rather than extend the
   baseline's distance fields, so these pin that branch's bytes. *)
let golden_fake_router_digests =
  [ ("D", "d28197c29b079d0e295d7ac2aaf48c20"); ("G", "7fad168aa960d2e217065d8b973e4662") ]

let test_golden_fake_routers () =
  List.iter
    (fun (id, expected) ->
      let p =
        { (params ~k_r:6 ~k_h:2 ~seed:Workflow.default_params.seed ()) with
          Workflow.fake_routers = 2 }
      in
      let r =
        Workflow.run_exn ~params:p (Netgen.Nets.configs (Netgen.Nets.find id))
      in
      let text =
        String.concat ""
          (List.map
             (fun (h, t) -> h ^ "\000" ^ t ^ "\000")
             (Workflow.anon_texts r))
      in
      check Alcotest.string ("net " ^ id ^ " with 2 fake routers") expected
        (Digest.to_hex (Digest.string text)))
    golden_fake_router_digests

(* Digests of the served record — [Batch.execute]'s [result.json]
   without its [seconds] and [telemetry] — of the catalog networks at
   k_R = 6, with the PII scrub off and on (under the key
   0x9e3779b97f4a7c15). They pin the verification summary, the red-team
   scores and the equivalence verdict along with the configs' digest. *)
let golden_record_digests =
  [
    ("A", "c0b543657010bcb969b2b774a5845d85", "18a693949985bf6fe8cc36c77abff700");
    ("B", "0143c3371e557ec0dc5917b3b8363bdf", "92e23b7b253a6a90c71e7dbc73017985");
    ("C", "c072053a4f04b88b35a814b1d628e29b", "23eb2a98a0befc9ea9bd624f58624443");
    ("D", "fa10aa55a6cfb2a4e68a07a5f6b1e564", "10be21326dc75b3b90e7d23d7381e0e3");
    ("E", "3a45b54be2eb479b256ae48f90298ee1", "afa22fe57b41d0e2563aeb2f77588320");
    ("F", "9a8a57f88b06132e66b787e1383c37e7", "51c8770d955f78cd2dd5526593cec675");
    ("G", "112a9411cadc4f3a928f88cc19c03331", "8f12c7cc1084e4dc85dd79e37ec77dc8");
    ("H", "3baa6bb065d013142a135fed5e4d3fa8", "1f9ca325599bf7782d8da19d553fd244");
  ]

let test_golden_records () =
  let out = Filename.temp_file "confmask-records" "" in
  Sys.remove out;
  let key = Result.get_ok (Pii.Pan.key_of_string "0x9e3779b97f4a7c15") in
  let digest id pii =
    let job_id = Printf.sprintf "%s-kr6-%s" id (if pii then "pii" else "plain") in
    let job_params =
      { Workflow.default_params with k_r = 6; pii; pii_key = (if pii then Some key else None) }
    in
    match
      Batch.execute ~out ~cache:None ~format:Configlang.Vendor.Cisco
        { job_id; job_source = Batch.Catalog id; job_params }
    with
    | Netcore.Json.Obj fields ->
        let kept = List.filter (fun (k, _) -> k <> "seconds" && k <> "telemetry") fields in
        Digest.to_hex (Digest.string (Netcore.Json.to_string (Netcore.Json.Obj kept)))
    | _ -> Alcotest.failf "%s: the record is not an object" job_id
  in
  List.iter
    (fun (id, plain, pii) ->
      check Alcotest.string ("net " ^ id) plain (digest id false);
      check Alcotest.string ("net " ^ id ^ " with PII") pii (digest id true))
    golden_record_digests

(* ---- the served record's consumers, per class group ---- *)

(* The verification of the mined specification as first written: mine
   every pair's delivered paths, then run [Query.differential] policy by
   policy, renaming through the report's name map. *)
let naive_verification (r : Workflow.report) =
  let dp_orig = Routing.Simulate.dataplane r.orig_snapshot in
  let net = r.orig_snapshot.net in
  let known n = Routing.Device.Smap.mem n net.routers || Routing.Device.Smap.mem n net.hosts in
  let rename n = Option.value ~default:n (List.assoc_opt n r.name_map) in
  let pairs =
    Routing.Dataplane.fold (fun pair (t : Routing.Dataplane.trace) acc -> (pair, t.delivered) :: acc) dp_orig []
  in
  Spec.Query.differential ~rename ~orig:dp_orig
    ~anon:(Routing.Simulate.dataplane r.anon_snapshot)
    ~known (Spec.mine_paths pairs)

let naive_equal_on ~hosts a b =
  List.for_all
    (fun src ->
      List.for_all
        (fun dst ->
          src = dst
          || Routing.Dataplane.paths a ~src ~dst = Routing.Dataplane.paths b ~src ~dst)
        hosts)
    hosts

let test_grouped_consumers () =
  List.iter
    (fun id ->
      List.iter
        (fun pii ->
          let p = params ~k_r:6 () in
          let r =
            Workflow.run_exn ~params:(if pii then with_pii p else p)
              (Netgen.Nets.configs (Netgen.Nets.find id))
          in
          let name = Printf.sprintf "net %s%s" id (if pii then " with PII" else "") in
          let naive = naive_verification r in
          let summary = Spec.Query.summarize naive in
          check Alcotest.bool (name ^ ": grouped summary") true
            ((Verify.of_report r).summary = summary);
          let v = Verify.of_report ~entries:true r in
          check Alcotest.bool (name ^ ": entries") true (v.entries = Some naive);
          check Alcotest.bool (name ^ ": summary with entries") true (v.summary = summary);
          let hosts = Workflow.real_hosts r in
          let dp_orig = Routing.Simulate.dataplane r.orig_snapshot in
          let dp_anon = Routing.Simulate.dataplane r.anon_snapshot in
          check Alcotest.bool (name ^ ": equal_on") (naive_equal_on ~hosts dp_orig dp_anon)
            (Routing.Dataplane.equal_on ~hosts dp_orig dp_anon))
        [ false; true ])
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ];
  (* Verification across two different networks: net D against net D
     with one host cut off. The host shares its class with another one,
     so the first side's class pairs split on the second side, with
     different verdicts. *)
  let configs = Netgen.Nets.configs (Netgen.Nets.find "D") in
  let dp_d = Routing.Simulate.dataplane (Routing.Simulate.run_exn configs) in
  let cut =
    Routing.Dataplane.fold
      (fun (src, dst) _ acc ->
        match (acc, Routing.Dataplane.representative dp_d ~src ~dst) with
        | None, Some { delivered = (rep_src :: _) :: _; _ } when rep_src <> src -> Some src
        | _ -> acc)
      dp_d None
    |> Option.get
  in
  (* An inbound filter on the cut host's gateway interface drops what
     the host sends. *)
  let addr =
    let c = List.find (fun (c : Configlang.Ast.config) -> c.hostname = cut) configs in
    fst (Option.get (List.hd c.interfaces).if_address)
  in
  let acl =
    let rule acl_action acl_src = { Configlang.Ast.acl_action; acl_src; acl_dst = None } in
    {
      Configlang.Ast.acl_name = "CUT";
      acl_rules =
        [ rule Configlang.Ast.Deny (Some (Netcore.Prefix.v addr 32)); rule Configlang.Ast.Permit None ];
    }
  in
  let facing (i : Configlang.Ast.interface) =
    Option.fold ~none:false ~some:(fun p -> Netcore.Prefix.mem addr p) (Configlang.Ast.interface_prefix i)
  in
  let filtered =
    List.map
      (fun (c : Configlang.Ast.config) ->
        if c.hostname = cut || not (List.exists facing c.interfaces) then c
        else
          {
            c with
            acls = acl :: c.acls;
            interfaces =
              List.map
                (fun i -> if facing i then { i with Configlang.Ast.if_acl_in = Some "CUT" } else i)
                c.interfaces;
          })
      configs
  in
  let orig = Routing.Simulate.run_exn configs and anon = Routing.Simulate.run_exn filtered in
  let net = orig.net in
  let known n = Routing.Device.Smap.mem n net.routers || Routing.Device.Smap.mem n net.hosts in
  let dp_orig = Routing.Simulate.dataplane orig in
  let naive =
    Spec.Query.differential ~orig:dp_orig ~anon:(Routing.Simulate.dataplane anon) ~known
      (Spec.mine dp_orig)
  in
  let summary = Spec.Query.summarize naive in
  check Alcotest.bool "net D, one host cut off: some policy lost" true (summary.lost > 0);
  check Alcotest.bool "net D, one host cut off: grouped summary" true
    ((Verify.check ~orig ~anon ()).summary = summary);
  (* A plane that differs from net D's on one member pair only — not the
     representative of its class pair — is told apart. *)
  let dp = dp_d in
  let pairs = Routing.Dataplane.fold (fun pair t acc -> (pair, t) :: acc) dp [] in
  let (src, dst), _ =
    List.find
      (fun ((src, dst), t) ->
        t.Routing.Dataplane.delivered <> []
        && Routing.Dataplane.representative dp ~src ~dst <> Some t)
      pairs
  in
  let changed =
    Routing.Dataplane.of_traces
      (List.map
         (fun (pair, (t : Routing.Dataplane.trace)) ->
           (pair, if pair = (src, dst) then { t with delivered = [] } else t))
         pairs)
  in
  let hosts = Routing.Dataplane.hosts dp in
  check Alcotest.bool "net D, one member pair changed: naive" false
    (naive_equal_on ~hosts dp changed);
  check Alcotest.bool "net D, one member pair changed: equal_on" false
    (Routing.Dataplane.equal_on ~hosts dp changed)

(* ---- the directory reader ---- *)

(* Net A's configurations in a fresh directory, then each [(file, text)]
   of [edits] written over it. *)
let net_a_dir edits =
  let dir = Filename.temp_file "confmask-reader" "" in
  Sys.remove dir;
  Batch.write_configs ~format:Configlang.Vendor.Cisco dir
    (Netgen.Nets.configs (Netgen.Nets.find "A"));
  List.iter
    (fun (f, text) ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc text))
    edits;
  dir

let a1_text () = In_channel.with_open_bin (Filename.concat (net_a_dir []) "a1.cfg") In_channel.input_all

let replace ~sub ~by s =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then Alcotest.failf "%S not in the config" sub
    else if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else at (i + 1)
  in
  at 0

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A k_R the network cannot reach is reported with both k, the cause
   and the remedy; a reachable one is not. *)
let test_kr_shortfall () =
  let triangle =
    Netgen.Emit.emit
      (Netgen.Netspec.v ~name:"triangle" ~routers:[ "r1"; "r2"; "r3" ]
         ~links:[ ("r1", "r2", 10); ("r2", "r3", 10); ("r1", "r3", 10) ]
         ~hosts:[ ("h1", "r1"); ("h2", "r3") ]
         ())
  in
  let shortfall ?(fake_routers = 0) k_r configs =
    let r = Workflow.run_exn ~params:{ (params ~k_r ()) with fake_routers } configs in
    Workflow.kr_shortfall r
      ~achieved:(Metrics.topology_of_snapshot r.anon_snapshot).min_degree_group
  in
  let expect ?fake_routers parts =
    match shortfall ?fake_routers 6 triangle with
    | None -> Alcotest.fail "a triangle at k_R 6 reports no shortfall"
    | Some msg ->
        List.iter
          (fun part ->
            check Alcotest.bool (Printf.sprintf "%S names %S" msg part) true
              (contains ~sub:part msg))
          parts
  in
  expect [ "requested k_R 6"; "achieved k 3"; "3 routers"; "--fake-routers N"; "N >= 3" ];
  (* The bound is the total N to pass: three real routers still need
     three fake ones, whatever N the run already used. *)
  expect ~fake_routers:2 [ "requested k_R 6"; "achieved k 5"; "5 routers"; "N >= 3" ];
  check Alcotest.(option string) "triangle at k_R 6 with 3 fake routers" None
    (shortfall ~fake_routers:3 6 triangle);
  check Alcotest.(option string) "triangle at k_R 3" None (shortfall 3 triangle);
  List.iter
    (fun id ->
      check Alcotest.(option string) ("net " ^ id ^ " at k_R 6") None
        (shortfall 6 (Netgen.Nets.configs (Netgen.Nets.find id))))
    [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ]

(* The reader rejects the directory with an input error that names the
   file and says why. *)
let expect_rejected name ~file ~why edits =
  let dir = net_a_dir edits in
  match Batch.read_config_dir dir with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Batch.Input_error m ->
      let path = Filename.concat dir file in
      check Alcotest.bool (Printf.sprintf "%s: %S names %s" name m path) true
        (contains ~sub:path m);
      check Alcotest.bool (Printf.sprintf "%s: %S says %S" name m why) true
        (contains ~sub:why m)

(* a1's configuration printed in JunosLite. *)
let a1_junos () =
  Configlang.Vendor.print Configlang.Vendor.Junos
    (List.find
       (fun (c : Configlang.Ast.config) -> c.hostname = "a1")
       (Netgen.Nets.configs (Netgen.Nets.find "A")))

let test_reader_no_hostname () =
  (* Each parses to a router named [Configlang.Ast.no_hostname]. *)
  let random = String.init 300 (fun i -> Char.chr ((i * 7919 + 13) mod 256)) in
  expect_rejected "empty a1.cfg" ~file:"a1.cfg" ~why:"no hostname" [ ("a1.cfg", "") ];
  expect_rejected "random-bytes a1.cfg" ~file:"a1.cfg" ~why:"no hostname"
    [ ("a1.cfg", random) ];
  let a1 = a1_text () in
  expect_rejected "no hostname line" ~file:"a1.cfg" ~why:"no hostname"
    [ ("a1.cfg", replace ~sub:"hostname a1\n" ~by:"" a1) ];
  expect_rejected "no host-name statement" ~file:"a1.cfg" ~why:"no hostname"
    [ ("a1.cfg", replace ~sub:"host-name a1;" ~by:"" (a1_junos ())) ]

(* "unnamed" is a name like any other, in either dialect. *)
let test_reader_hostname_unnamed () =
  List.iter
    (fun (dialect, text) ->
      let configs = Batch.read_config_dir (net_a_dir [ ("a1.cfg", text) ]) in
      check Alcotest.bool (dialect ^ ": a router named unnamed") true
        (List.exists (fun (c : Configlang.Ast.config) -> c.hostname = "unnamed") configs))
    [
      ("cisco", replace ~sub:"hostname a1\n" ~by:"hostname unnamed\n" (a1_text ()));
      ("junos", replace ~sub:"host-name a1;" ~by:"host-name unnamed;" (a1_junos ()));
    ]

let test_reader_truncated_config () =
  (* Cut off at byte 100, inside its second interface stanza, a1.cfg is
     still a well-formed config of router a1: nothing in it marks the cut. *)
  let a1 = a1_text () in
  let configs = Batch.read_config_dir (net_a_dir [ ("a1.cfg", String.sub a1 0 100) ]) in
  let c = List.find (fun (c : Configlang.Ast.config) -> c.hostname = "a1") configs in
  check Alcotest.(list string) "its interfaces" [ "Eth0"; "Eth" ]
    (List.map (fun (i : Configlang.Ast.interface) -> i.if_name) c.interfaces)

let test_reader_duplicate_hostname () =
  (* Files are read in sorted order, so the later file is the one named. *)
  expect_rejected "a1's hostname in z1.cfg" ~file:"z1.cfg"
    ~why:"hostname 'a1' is already declared by" [ ("z1.cfg", a1_text ()) ]

let test_reader_bad_interfaces () =
  let a1 = a1_text () in
  expect_rejected "two interfaces Eth0" ~file:"a1.cfg" ~why:"interface 'Eth0' is declared twice"
    [ ("a1.cfg", replace ~sub:"interface Eth1\n" ~by:"interface Eth0\n" a1) ];
  expect_rejected "mask 0.0.0.0" ~file:"a1.cfg" ~why:"interface 'Eth0' has mask 0.0.0.0"
    [ ("a1.cfg",
       replace ~sub:"ip address 10.0.0.1 255.255.255.252" ~by:"ip address 10.0.0.1 0.0.0.0" a1) ];
  (* Such a prefix leaves Prefix.alloc_fresh no fake prefix to hand out;
     the reader names the file before the anonymizer gets that far. *)
  expect_rejected "prefix covering the fake-prefix pool" ~file:"a1.cfg"
    ~why:"interface 'Eth0' prefix 100.64.0.0/10 covers the fake-prefix pool 100.64.0.0/10"
    [ ("a1.cfg",
       replace ~sub:"ip address 10.0.0.1 255.255.255.252"
         ~by:"ip address 100.64.0.1 255.192.0.0" a1) ]

let test_classify () =
  check Alcotest.(pair string string) "Not_found is a bug" ("internal", "Not_found")
    (Batch.classify Not_found);
  check Alcotest.int "exit code" 2 (Batch.exit_code (fst (Batch.classify Not_found)));
  check Alcotest.string "an input error" "input" (fst (Batch.classify (Batch.Input_error "x")))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pipeline_equivalence;
      prop_strawman2_equivalence;
      prop_high_noise_safe;
      prop_pool_determinism;
    ]

let () =
  Alcotest.run "confmask"
    [
      ( "pipeline",
        [
          Alcotest.test_case "an unreachable k_R is reported, reachable ones are not" `Quick
            test_kr_shortfall;
          Alcotest.test_case "fattree04 (ospf ecmp)" `Quick test_ospf_enterprise_like;
          Alcotest.test_case "bgp+ospf nets" `Quick test_bgp_nets;
          Alcotest.test_case "a BGP-less router in a BGP net" `Quick
            test_bgp_less_router_in_bgp_net;
          Alcotest.test_case "fake links between IGP domains take no SFE cost" `Quick
            test_cross_domain_fake_link_costs;
          Alcotest.test_case "rip net" `Quick test_rip_net;
          Alcotest.test_case "eigrp net" `Quick test_eigrp_net;
          Alcotest.test_case "wan (bics)" `Slow test_wan_net;
          Alcotest.test_case "bgp with route-maps" `Quick test_bgp_with_route_maps;
          Alcotest.test_case "k_r = 6" `Quick test_kr6;
          Alcotest.test_case "k_h = 4" `Quick test_kh4;
          Alcotest.test_case "k_h = 1 disables fake hosts" `Quick test_kh1_no_fake_hosts;
          Alcotest.test_case "fake routers + pii" `Quick test_fake_routers_with_pii;
          Alcotest.test_case "a denied real-host route breaks equivalence" `Quick
            test_equivalence_sees_a_denied_host_route;
        ] );
      ( "directory-reader",
        [
          Alcotest.test_case "no hostname" `Quick test_reader_no_hostname;
          Alcotest.test_case "hostname unnamed" `Quick test_reader_hostname_unnamed;
          Alcotest.test_case "a truncated config" `Quick test_reader_truncated_config;
          Alcotest.test_case "a duplicate hostname" `Quick test_reader_duplicate_hostname;
          Alcotest.test_case "bad interfaces" `Quick test_reader_bad_interfaces;
          Alcotest.test_case "error classes" `Quick test_classify;
        ] );
      ( "properties-of-output",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_seed_changes_output;
          Alcotest.test_case "append-only edits" `Quick test_append_only;
          Alcotest.test_case "fake prefixes disjoint" `Quick test_fake_prefixes_disjoint;
          Alcotest.test_case "route anonymity improves" `Quick test_route_anonymity_improves;
          Alcotest.test_case "100% kept paths" `Quick test_kept_paths_100_percent;
          Alcotest.test_case "config utility bounds" `Quick test_config_utility_bounds;
          Alcotest.test_case "pii add-on" `Quick test_pii_addon;
          Alcotest.test_case "pii needs a key" `Quick test_pii_needs_key;
        ] );
      ( "scale-extension",
        [
          Alcotest.test_case "fake routers end to end" `Quick test_fake_routers;
          Alcotest.test_case "name scheme" `Quick test_fake_routers_name_scheme;
          Alcotest.test_case "rejected on BGP" `Quick test_fake_routers_rejected_on_bgp;
        ] );
      ( "strawmen",
        [
          Alcotest.test_case "strawman1 restores fibs" `Quick test_strawman1_restores;
          Alcotest.test_case "strawman2 restores paths" `Quick test_strawman2_restores;
          Alcotest.test_case "filter count ordering" `Quick test_strawman_filter_counts;
        ] );
      ( "edits",
        [
          Alcotest.test_case "deny/undeny roundtrip" `Quick test_edits_deny_roundtrip;
          Alcotest.test_case "fresh iface names" `Quick test_fresh_iface_name;
        ] );
      ( "walks",
        [
          Alcotest.test_case "indexed walk = naive walk on nets A-H" `Quick
            test_walks_match_naive_on_catalog;
          Alcotest.test_case "indexed walk = naive walk on a static loop" `Quick
            test_walks_match_naive_on_static_loop;
          Alcotest.test_case "repair keeps noise-free reachability on nets A-H" `Quick
            test_repair_keeps_reachability;
        ] );
      ( "record",
        [
          Alcotest.test_case "grouped verification and equivalence = per pair" `Quick
            test_grouped_consumers;
        ] );
      ( "golden",
        [
          Alcotest.test_case "anonymized outputs of nets A-H" `Quick test_golden_outputs;
          Alcotest.test_case "served records of nets A-H" `Quick test_golden_records;
          Alcotest.test_case "anonymized outputs with fake routers" `Quick
            test_golden_fake_routers;
        ] );
      ("qcheck", qsuite);
    ]
