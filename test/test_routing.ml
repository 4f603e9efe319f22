(* Tests of the control-plane simulator against the paper's running
   examples: the §3.2 four-router OSPF network (including the strawman
   fake-edge behaviors the anonymizer relies on), RIP ECMP, and a small
   BGP+OSPF multi-AS network. *)

open Routing

let check = Alcotest.check
let path_t = Alcotest.(list string)
let paths_t = Alcotest.(list path_t)

let config lines = Configlang.Parser.parse_exn (String.concat "\n" lines)

(* ---- §3.2 example: h1 - r1 - r3 - r2 - r4 - h4, low costs on r1-r3-r2 ---- *)

let r1 ?(fake = []) () =
  config
    ([
       "hostname r1";
       "interface Eth0";
       " ip address 10.0.13.1 255.255.255.0";
       " ip ospf cost 1";
       "!";
       "interface Eth1";
       " ip address 10.1.1.1 255.255.255.0";
       "!";
     ]
    @ fake
    @ [ "router ospf 1"; " network 10.0.0.0 0.255.255.255 area 0";
        " network 100.64.0.0 0.63.255.255 area 0" ])

let r3 =
  config
    [
      "hostname r3";
      "interface Eth0";
      " ip address 10.0.13.3 255.255.255.0";
      " ip ospf cost 1";
      "!";
      "interface Eth1";
      " ip address 10.0.23.3 255.255.255.0";
      " ip ospf cost 1";
      "!";
      "router ospf 1";
      " network 10.0.0.0 0.255.255.255 area 0";
    ]

let r2 =
  config
    [
      "hostname r2";
      "interface Eth0";
      " ip address 10.0.23.2 255.255.255.0";
      " ip ospf cost 1";
      "!";
      "interface Eth1";
      " ip address 10.0.24.2 255.255.255.0";
      "!";
      "interface Eth2";
      " ip address 10.2.2.1 255.255.255.0";
      "!";
      "router ospf 1";
      " network 10.0.0.0 0.255.255.255 area 0";
    ]

let r4 ?(fake = []) () =
  config
    ([
       "hostname r4";
       "interface Eth0";
       " ip address 10.0.24.4 255.255.255.0";
       "!";
       "interface Eth1";
       " ip address 10.4.4.1 255.255.255.0";
       "!";
     ]
    @ fake
    @ [ "router ospf 1"; " network 10.0.0.0 0.255.255.255 area 0";
        " network 100.64.0.0 0.63.255.255 area 0" ])

let host name addr gw =
  config
    [
      "hostname " ^ name;
      "interface eth0";
      Printf.sprintf " ip address %s 255.255.255.0" addr;
      "ip default-gateway " ^ gw;
    ]

let h1 = host "h1" "10.1.1.10" "10.1.1.1"
let h2 = host "h2" "10.2.2.10" "10.2.2.1"
let h4 = host "h4" "10.4.4.10" "10.4.4.1"

let example_net ?(r1_fake = []) ?(r4_fake = []) () =
  [ r1 ~fake:r1_fake (); r2; r3; r4 ~fake:r4_fake (); h1; h2; h4 ]

let fake_iface addr cost =
  [
    "interface Eth9";
    Printf.sprintf " ip address %s 255.255.255.0" addr;
    Printf.sprintf " ip ospf cost %d" cost;
    "!";
  ]

let test_ospf_original_paths () =
  let s = Simulate.run_exn (example_net ()) in
  let dp = Simulate.dataplane s in
  check paths_t "h1 -> h4 single path"
    [ [ "h1"; "r1"; "r3"; "r2"; "r4"; "h4" ] ]
    (Dataplane.paths dp ~src:"h1" ~dst:"h4");
  check paths_t "h4 -> h1 reverse"
    [ [ "h4"; "r4"; "r2"; "r3"; "r1"; "h1" ] ]
    (Dataplane.paths dp ~src:"h4" ~dst:"h1");
  check paths_t "h1 -> h2"
    [ [ "h1"; "r1"; "r3"; "r2"; "h2" ] ]
    (Dataplane.paths dp ~src:"h1" ~dst:"h2")

(* Strawman step 2(i): fake edge with default cost migrates the path. *)
let test_fake_edge_default_cost_migrates () =
  let nets =
    example_net
      ~r1_fake:(fake_iface "100.64.0.1" 10)
      ~r4_fake:(fake_iface "100.64.0.2" 10)
      ()
  in
  let s = Simulate.run_exn nets in
  let dp = Simulate.dataplane s in
  check paths_t "migrated to fake edge"
    [ [ "h1"; "r1"; "r4"; "h4" ] ]
    (Dataplane.paths dp ~src:"h1" ~dst:"h4")

(* Strawman step 2(ii): a huge cost keeps paths but carries no traffic. *)
let test_fake_edge_large_cost_preserves () =
  let nets =
    example_net
      ~r1_fake:(fake_iface "100.64.0.1" 1000)
      ~r4_fake:(fake_iface "100.64.0.2" 1000)
      ()
  in
  let s = Simulate.run_exn nets in
  let dp = Simulate.dataplane s in
  check paths_t "original path preserved"
    [ [ "h1"; "r1"; "r3"; "r2"; "r4"; "h4" ] ]
    (Dataplane.paths dp ~src:"h1" ~dst:"h4")

(* Strawman step 2(iii): matching min_cost creates ECMP over the fake edge. *)
let test_fake_edge_matched_cost_multipath () =
  let nets =
    example_net
      ~r1_fake:(fake_iface "100.64.0.1" 12)
      ~r4_fake:(fake_iface "100.64.0.2" 12)
      ()
  in
  let s = Simulate.run_exn nets in
  let dp = Simulate.dataplane s in
  check paths_t "traffic split across fake and real"
    [ [ "h1"; "r1"; "r3"; "r2"; "r4"; "h4" ]; [ "h1"; "r1"; "r4"; "h4" ] ]
    (List.sort compare (Dataplane.paths dp ~src:"h1" ~dst:"h4"))

(* ConfMask's fix: a distribute-list rejecting the equal-cost fake next hop
   restores the original forwarding exactly. *)
let test_filter_restores_equivalence () =
  let r1_fake =
    fake_iface "100.64.0.1" 12
    @ [
        "ip prefix-list FIX1 seq 5 deny 10.4.4.0/24";
        "ip prefix-list FIX1 seq 100 permit 0.0.0.0/0 le 32";
      ]
  in
  let r4_fake =
    fake_iface "100.64.0.2" 12
    @ [
        "ip prefix-list FIX4 seq 5 deny 10.1.1.0/24";
        "ip prefix-list FIX4 seq 100 permit 0.0.0.0/0 le 32";
      ]
  in
  (* Rebuild r1/r4 with the distribute-list bound inside the OSPF block. *)
  let patch c name =
    let open Configlang.Ast in
    match c.ospf with
    | Some o ->
        {
          c with
          ospf =
            Some
              {
                o with
                ospf_distribute_in = [ { dl_list = name; dl_iface = "Eth9" } ];
              };
        }
    | None -> c
  in
  let nets =
    List.map
      (fun c ->
        let open Configlang.Ast in
        if c.hostname = "r1" then patch c "FIX1"
        else if c.hostname = "r4" then patch c "FIX4"
        else c)
      (example_net ~r1_fake ~r4_fake ())
  in
  let s = Simulate.run_exn nets in
  let dp = Simulate.dataplane s in
  check paths_t "h1 -> h4 restored"
    [ [ "h1"; "r1"; "r3"; "r2"; "r4"; "h4" ] ]
    (Dataplane.paths dp ~src:"h1" ~dst:"h4");
  check paths_t "h4 -> h1 restored"
    [ [ "h4"; "r4"; "r2"; "r3"; "r1"; "h1" ] ]
    (Dataplane.paths dp ~src:"h4" ~dst:"h1");
  (* The baseline data plane is fully restored. *)
  let base = Simulate.run_exn (example_net ()) in
  let dp0 = Simulate.dataplane base in
  check Alcotest.bool "route equivalence" true
    (Dataplane.equal_on ~hosts:[ "h1"; "h2"; "h4" ] dp0 dp)

let test_min_cost () =
  let s = Simulate.run_exn (example_net ()) in
  let d = Ospf.min_cost s.net "r1" in
  check Alcotest.(option int) "min cost r1->r4" (Some 12) (d "r4");
  check Alcotest.(option int) "min cost r1->r3" (Some 1) (d "r3");
  check Alcotest.(option int) "min cost r1->r1" (Some 0) (d "r1");
  check Alcotest.(option int) "min cost r1->h1" None (d "h1")

(* The distances the SFE cost rule reads, one query per IGP domain,
   agree with the reference Dijkstra from every router of nets A-H
   toward every router. *)
let test_min_cost_reference () =
  List.iter
    (fun (entry : Netgen.Nets.entry) ->
      let net = Device.compile_exn (Netgen.Nets.configs entry) in
      List.iter
        (fun (d : Simulate.igp_domain) ->
          let query = Ospf.min_cost ~scope:d.dom_scope net in
          Device.Smap.iter
            (fun u _ ->
              let got = query u in
              let want = Crucible.Reference.min_cost ~scope:d.dom_scope net u in
              Device.Smap.iter
                (fun v _ ->
                  if got v <> Device.Smap.find_opt v want then
                    Alcotest.failf "net %s: min_cost %s -> %s" entry.id u v)
                net.routers)
            net.routers)
        (Simulate.igp_domains net))
    (Netgen.Nets.small ())

let test_topology_graphs () =
  let s = Simulate.run_exn (example_net ()) in
  let g = Device.router_graph s.net in
  check Alcotest.int "router nodes" 4 (Netcore.Graph.num_nodes g);
  check Alcotest.int "router edges" 3 (Netcore.Graph.num_edges g);
  let fg = Device.full_graph s.net in
  check Alcotest.int "full nodes" 7 (Netcore.Graph.num_nodes fg);
  check Alcotest.int "full edges" 6 (Netcore.Graph.num_edges fg)

let test_compile_errors () =
  let dup = [ r3; r3 ] in
  (match Device.compile dup with
  | Error m ->
      check Alcotest.bool "duplicate hostname" true
        (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected duplicate hostname error");
  let orphan = [ host "h9" "172.31.0.10" "172.31.0.1" ] in
  (match Device.compile orphan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unattached host error");
  let undefined_filter =
    [
      config
        [
          "hostname rx";
          "interface Eth0";
          " ip address 10.0.0.1 255.255.255.0";
          "router ospf 1";
          " network 10.0.0.0 0.255.255.255 area 0";
          " distribute-list prefix NOPE in Eth0";
        ];
    ]
  in
  match Device.compile undefined_filter with
  | Error m -> check Alcotest.bool "undefined prefix list" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected undefined prefix-list error"

let test_no_route_dropped () =
  (* h4's prefix removed from OSPF: destination unreachable from h1. *)
  let r4_no_adv =
    config
      [
        "hostname r4";
        "interface Eth0";
        " ip address 10.0.24.4 255.255.255.0";
        "!";
        "interface Eth1";
        " ip address 172.20.4.1 255.255.255.0";
        "!";
        "router ospf 1";
        " network 10.0.0.0 0.255.255.255 area 0";
      ]
  in
  let h4' = host "h4" "172.20.4.10" "172.20.4.1" in
  let s = Simulate.run_exn [ r1 (); r2; r3; r4_no_adv; h1; h2; h4' ] in
  let dp = Simulate.dataplane s in
  let t = Option.get (Routing.Dataplane.trace dp ~src:"h1" ~dst:"h4") in
  check paths_t "no delivery" [] t.delivered;
  check Alcotest.bool "dropped recorded" true (t.dropped <> [])

(* ---------------- RIP ---------------- *)

let rip_router name addrs =
  config
    ([ "hostname " ^ name ]
    @ List.concat_map
        (fun (i, addr) ->
          [
            Printf.sprintf "interface Eth%d" i;
            Printf.sprintf " ip address %s 255.255.255.0" addr;
            "!";
          ])
        (List.mapi (fun i a -> (i, a)) addrs)
    @ [ "router rip"; " network 10.0.0.0 0.255.255.255" ])

(* Square: q1 - q2 - q3 - q4 - q1, host a on q1, host c on q3. *)
let rip_net () =
  [
    rip_router "q1" [ "10.0.12.1"; "10.0.41.1"; "10.10.1.1" ];
    rip_router "q2" [ "10.0.12.2"; "10.0.23.2" ];
    rip_router "q3" [ "10.0.23.3"; "10.0.34.3"; "10.10.3.1" ];
    rip_router "q4" [ "10.0.34.4"; "10.0.41.4" ];
    host "ha" "10.10.1.10" "10.10.1.1";
    host "hc" "10.10.3.10" "10.10.3.1";
  ]

let test_rip_ecmp () =
  let s = Simulate.run_exn (rip_net ()) in
  let dp = Simulate.dataplane s in
  check paths_t "two equal-hop paths"
    [ [ "ha"; "q1"; "q2"; "q3"; "hc" ]; [ "ha"; "q1"; "q4"; "q3"; "hc" ] ]
    (List.sort compare (Dataplane.paths dp ~src:"ha" ~dst:"hc"))

let test_rip_filter () =
  let nets =
    List.map
      (fun c ->
        let open Configlang.Ast in
        if c.hostname <> "q1" then c
        else
          let c =
            add_prefix_list_rule c "NOQ2" Deny
              (Netcore.Prefix.of_string_exn "10.10.3.0/24")
          in
          let c =
            add_prefix_list_rule c "NOQ2" Permit
              (Netcore.Prefix.of_string_exn "0.0.0.0/0")
          in
          (* Fix the catch-all to cover all lengths. *)
          let prefix_lists =
            List.map
              (fun pl ->
                if pl.pl_name = "NOQ2" then
                  { pl with
                    pl_rules =
                      List.map
                        (fun r ->
                          if r.action = Permit then { r with le = Some 32 } else r)
                        pl.pl_rules }
                else pl)
              c.prefix_lists
          in
          let rip =
            Option.map
              (fun r ->
                { r with rip_distribute_in = [ { dl_list = "NOQ2"; dl_iface = "Eth0" } ] })
              c.rip
          in
          { c with prefix_lists; rip })
      (rip_net ())
  in
  let s = Simulate.run_exn nets in
  let dp = Simulate.dataplane s in
  check paths_t "filtered down to one path"
    [ [ "ha"; "q1"; "q4"; "q3"; "hc" ] ]
    (Dataplane.paths dp ~src:"ha" ~dst:"hc")

let test_parallel_links () =
  (* Two subnets between p1 and p2: the lower-cost one wins; equal costs
     give two adjacencies but a single next-hop router. *)
  let p1 =
    config
      [
        "hostname p1";
        "interface Eth0";
        " ip address 10.0.1.1 255.255.255.0";
        " ip ospf cost 5";
        "!";
        "interface Eth1";
        " ip address 10.0.2.1 255.255.255.0";
        "!";
        "interface Eth2";
        " ip address 10.10.1.1 255.255.255.0";
        "!";
        "router ospf 1";
        " network 10.0.0.0 0.255.255.255 area 0";
      ]
  in
  let p2 =
    config
      [
        "hostname p2";
        "interface Eth0";
        " ip address 10.0.1.2 255.255.255.0";
        " ip ospf cost 5";
        "!";
        "interface Eth1";
        " ip address 10.0.2.2 255.255.255.0";
        "!";
        "interface Eth2";
        " ip address 10.10.2.1 255.255.255.0";
        "!";
        "router ospf 1";
        " network 10.0.0.0 0.255.255.255 area 0";
      ]
  in
  let nets =
    [ p1; p2; host "ha" "10.10.1.10" "10.10.1.1"; host "hb" "10.10.2.10" "10.10.2.1" ]
  in
  let s = Simulate.run_exn nets in
  let fib = Device.Smap.find "p1" s.fibs in
  match Fib.lookup fib (Netcore.Ipv4.of_string_exn "10.10.2.10") with
  | Some r ->
      check Alcotest.(list string) "single next-hop router" [ "p2" ]
        (Fib.nexthop_names r.rt_nexthops);
      (* The cheap (cost 5) parallel link is chosen. *)
      check Alcotest.int "metric uses cheap link" (5 + 10) r.rt_metric
  | None -> Alcotest.fail "expected route"

let test_asymmetric_costs () =
  (* r1 -> r3 is cheap in one direction only: forward and reverse paths
     differ, which the per-direction min_cost must reflect. *)
  let mk name addr_cost_list host_subnet =
    config
      ([ "hostname " ^ name ]
      @ List.concat_map
          (fun (i, addr, cost) ->
            [
              Printf.sprintf "interface Eth%d" i;
              Printf.sprintf " ip address %s 255.255.255.0" addr;
            ]
            @ (match cost with
              | Some c -> [ Printf.sprintf " ip ospf cost %d" c ]
              | None -> [])
            @ [ "!" ])
          addr_cost_list
      @ (match host_subnet with
        | Some a ->
            [ "interface Eth9"; Printf.sprintf " ip address %s 255.255.255.0" a; "!" ]
        | None -> [])
      @ [ "router ospf 1"; " network 10.0.0.0 0.255.255.255 area 0" ])
  in
  let a1 = mk "a1" [ (0, "10.0.12.1", Some 1); (1, "10.0.13.1", Some 30) ] (Some "10.20.1.1") in
  let a2 = mk "a2" [ (0, "10.0.12.2", Some 1); (1, "10.0.23.2", Some 1) ] None in
  let a3 = mk "a3" [ (0, "10.0.13.3", Some 1); (1, "10.0.23.3", Some 1) ] (Some "10.20.3.1") in
  let nets =
    [ a1; a2; a3; host "hx" "10.20.1.10" "10.20.1.1"; host "hy" "10.20.3.10" "10.20.3.1" ]
  in
  let s = Simulate.run_exn nets in
  let min_cost = Ospf.min_cost s.net in
  let d13 = min_cost "a1" and d31 = min_cost "a3" in
  (* a1 -> a3: direct costs 30, via a2 costs 1 + 1 = 2. *)
  check Alcotest.(option int) "a1 -> a3" (Some 2) (d13 "a3");
  (* a3 -> a1: direct costs 1 (a3's side), via a2 costs 1 + 1 = 2. *)
  check Alcotest.(option int) "a3 -> a1" (Some 1) (d31 "a1");
  let dp = Simulate.dataplane s in
  check paths_t "forward path detours"
    [ [ "hx"; "a1"; "a2"; "a3"; "hy" ] ]
    (Dataplane.paths dp ~src:"hx" ~dst:"hy");
  check paths_t "reverse path direct"
    [ [ "hy"; "a3"; "a1"; "hx" ] ]
    (Dataplane.paths dp ~src:"hy" ~dst:"hx")

let test_static_route_overrides_igp () =
  (* r1 has a static route for h4's subnet via r4's direct... there is no
     direct link, so use the example net: static at r1 pointing h4 via r3
     is redundant; instead point h2's prefix via the r1-r3 neighbor and
     check AD 1 wins over OSPF and that forwarding follows it. *)
  let nets =
    List.map
      (fun c ->
        let open Configlang.Ast in
        if c.hostname <> "r1" then c
        else
          {
            c with
            statics =
              [
                {
                  st_prefix = Netcore.Prefix.of_string_exn "10.2.2.0/24";
                  st_next_hop = Netcore.Ipv4.of_string_exn "10.0.13.3";
                };
              ];
          })
      (example_net ())
  in
  let s = Simulate.run_exn nets in
  let fib = Device.Smap.find "r1" s.fibs in
  (match Fib.lookup fib (Netcore.Ipv4.of_string_exn "10.2.2.10") with
  | Some r -> check Alcotest.string "static wins" "static" (Fib.proto_to_string r.rt_proto)
  | None -> Alcotest.fail "expected a route");
  let dp = Simulate.dataplane s in
  check paths_t "forwarding unchanged (same next hop)"
    [ [ "h1"; "r1"; "r3"; "r2"; "h2" ] ]
    (Dataplane.paths dp ~src:"h1" ~dst:"h2")

let test_static_route_detour () =
  (* Pointing h4's prefix at the r1-r3 link is the OSPF path anyway; a
     static via a *fake-looking* neighbor must actually move traffic:
     give r2 a static for h1 via r4 (the wrong direction) and watch the
     detour... which loops, demonstrating that statics are honored over
     the IGP and that the walker reports the loop. *)
  let nets =
    List.map
      (fun c ->
        let open Configlang.Ast in
        if c.hostname <> "r2" then c
        else
          {
            c with
            statics =
              [
                {
                  st_prefix = Netcore.Prefix.of_string_exn "10.1.1.0/24";
                  st_next_hop = Netcore.Ipv4.of_string_exn "10.0.24.4";
                };
              ];
          })
      (example_net ())
  in
  let s = Simulate.run_exn nets in
  let t = Dataplane.traceroute s.net s.fibs ~src:"h4" ~dst:"h1" in
  check paths_t "no delivery" [] t.delivered;
  check Alcotest.bool "loop detected" true (t.looped <> [])

let test_static_requires_connected_nexthop () =
  (* A static whose next hop is not on any connected subnet is ignored. *)
  let nets =
    List.map
      (fun c ->
        let open Configlang.Ast in
        if c.hostname <> "r1" then c
        else
          {
            c with
            statics =
              [
                {
                  st_prefix = Netcore.Prefix.of_string_exn "10.2.2.0/24";
                  st_next_hop = Netcore.Ipv4.of_string_exn "172.31.0.1";
                };
              ];
          })
      (example_net ())
  in
  let s = Simulate.run_exn nets in
  let fib = Device.Smap.find "r1" s.fibs in
  match Fib.lookup fib (Netcore.Ipv4.of_string_exn "10.2.2.10") with
  | Some r -> check Alcotest.string "falls back to ospf" "ospf" (Fib.proto_to_string r.rt_proto)
  | None -> Alcotest.fail "expected a route"

(* ---------------- EIGRP ---------------- *)

let test_eigrp_delay_metric () =
  (* The eigrp_lab's direct e1-e5 link has delay 100, so the composite
     metric prefers the three-hop detour — a hop-count protocol would
     take the direct link. *)
  let s = Simulate.run_exn (Netgen.Emit.emit (Netgen.Smallnets.eigrp_lab ())) in
  let dp = Simulate.dataplane s in
  check paths_t "delay-based path"
    [ [ "he1"; "e1"; "e2"; "e3"; "e5"; "he5" ] ]
    (Dataplane.paths dp ~src:"he1" ~dst:"he5");
  (* Confirm the routes really are EIGRP ones with AD 90. *)
  let fib = Device.Smap.find "e1" s.fibs in
  match Fib.lookup fib (Netcore.Ipv4.of_string_exn "10.128.2.10") with
  | Some r ->
      check Alcotest.string "protocol" "eigrp" (Fib.proto_to_string r.rt_proto)
  | None -> Alcotest.fail "expected a route"

let test_eigrp_filter () =
  (* Denying he5's prefix on e1's detour interface forces the direct link
     despite its worse metric. *)
  let nets =
    List.map
      (fun c ->
        let open Configlang.Ast in
        if c.hostname <> "e1" then c
        else
          let c =
            Confmask.Edits.deny_on_iface c ~iface:"Eth0"
              (Netcore.Prefix.of_string_exn "10.128.2.0/24")
          in
          c)
      (Netgen.Emit.emit (Netgen.Smallnets.eigrp_lab ()))
  in
  let s = Simulate.run_exn nets in
  let dp = Simulate.dataplane s in
  check paths_t "rerouted to direct link"
    [ [ "he1"; "e1"; "e5"; "he5" ] ]
    (Dataplane.paths dp ~src:"he1" ~dst:"he5")

(* ---------------- BGP ---------------- *)

(* AS100 {ra1, ra2 + host ha}, AS200 {rb1 + host hb}, AS300 {rc1 + host hc}.
   eBGP triangle AS100-AS200-AS300 plus direct AS100-AS300 link. *)
let bgp_nets ?(ra1_extra_bgp = []) () =
  [
    config
      ([
         "hostname ra1";
         "interface Eth0";
         " ip address 10.0.12.1 255.255.255.0";
         "!";
         "interface Eth1";
         " ip address 172.16.12.1 255.255.255.0";
         "!";
         "interface Eth2";
         " ip address 172.16.13.1 255.255.255.0";
         "!";
         "router ospf 1";
         " network 10.0.0.0 0.255.255.255 area 0";
         "!";
         "router bgp 100";
         " neighbor 10.0.12.2 remote-as 100";
         " neighbor 172.16.12.2 remote-as 200";
         " neighbor 172.16.13.3 remote-as 300";
       ]
      @ ra1_extra_bgp);
    config
      [
        "hostname ra2";
        "interface Eth0";
        " ip address 10.0.12.2 255.255.255.0";
        "!";
        "interface Eth1";
        " ip address 10.1.1.1 255.255.255.0";
        "!";
        "router ospf 1";
        " network 10.0.0.0 0.255.255.255 area 0";
        "!";
        "router bgp 100";
        " network 10.1.1.0 mask 255.255.255.0";
        " neighbor 10.0.12.1 remote-as 100";
      ];
    config
      [
        "hostname rb1";
        "interface Eth0";
        " ip address 172.16.12.2 255.255.255.0";
        "!";
        "interface Eth1";
        " ip address 172.16.23.2 255.255.255.0";
        "!";
        "interface Eth2";
        " ip address 10.9.9.1 255.255.255.0";
        "!";
        "router bgp 200";
        " network 10.9.9.0 mask 255.255.255.0";
        " neighbor 172.16.12.1 remote-as 100";
        " neighbor 172.16.23.3 remote-as 300";
      ];
    config
      [
        "hostname rc1";
        "interface Eth0";
        " ip address 172.16.13.3 255.255.255.0";
        "!";
        "interface Eth1";
        " ip address 172.16.23.3 255.255.255.0";
        "!";
        "interface Eth2";
        " ip address 10.7.7.1 255.255.255.0";
        "!";
        "router bgp 300";
        " network 10.7.7.0 mask 255.255.255.0";
        " neighbor 172.16.13.1 remote-as 100";
        " neighbor 172.16.23.2 remote-as 200";
      ];
    host "ha" "10.1.1.10" "10.1.1.1";
    host "hb" "10.9.9.10" "10.9.9.1";
    host "hc" "10.7.7.10" "10.7.7.1";
  ]

let test_bgp_shortest_as_path () =
  let s = Simulate.run_exn (bgp_nets ()) in
  let dp = Simulate.dataplane s in
  check paths_t "direct AS path preferred"
    [ [ "ha"; "ra2"; "ra1"; "rc1"; "hc" ] ]
    (Dataplane.paths dp ~src:"ha" ~dst:"hc");
  check paths_t "ibgp + ebgp return path"
    [ [ "hc"; "rc1"; "ra1"; "ra2"; "ha" ] ]
    (Dataplane.paths dp ~src:"hc" ~dst:"ha")

let test_bgp_filter_reroutes () =
  (* ra1 rejects hc's prefix from rc1: traffic detours through AS200. *)
  let extra =
    [
      " neighbor 172.16.13.3 distribute-list NOHC in";
      "!";
      "ip prefix-list NOHC seq 5 deny 10.7.7.0/24";
      "ip prefix-list NOHC seq 100 permit 0.0.0.0/0 le 32";
    ]
  in
  let s = Simulate.run_exn (bgp_nets ~ra1_extra_bgp:extra ()) in
  let dp = Simulate.dataplane s in
  check paths_t "detour via AS200"
    [ [ "ha"; "ra2"; "ra1"; "rb1"; "rc1"; "hc" ] ]
    (Dataplane.paths dp ~src:"ha" ~dst:"hc")

let test_bgp_local_preference () =
  (* ra1 prefers routes learned from AS200 (local-pref 200), overriding
     the shorter direct AS path to AS300. *)
  let extra =
    [
      " neighbor 172.16.12.2 route-map PREF200 in";
      "!";
      "route-map PREF200 permit 10";
      " set local-preference 200";
    ]
  in
  let s = Simulate.run_exn (bgp_nets ~ra1_extra_bgp:extra ()) in
  let dp = Simulate.dataplane s in
  check paths_t "local-pref overrides AS-path length"
    [ [ "ha"; "ra2"; "ra1"; "rb1"; "rc1"; "hc" ] ]
    (Dataplane.paths dp ~src:"ha" ~dst:"hc")

let test_bgp_route_map_deny () =
  (* A deny route-map on the direct AS300 session behaves like a filter:
     traffic detours via AS200. *)
  let extra =
    [
      " neighbor 172.16.13.3 route-map BLOCK in";
      "!";
      "route-map BLOCK deny 10";
    ]
  in
  let s = Simulate.run_exn (bgp_nets ~ra1_extra_bgp:extra ()) in
  let dp = Simulate.dataplane s in
  check paths_t "deny clause rejects the session's routes"
    [ [ "ha"; "ra2"; "ra1"; "rb1"; "rc1"; "hc" ] ]
    (Dataplane.paths dp ~src:"ha" ~dst:"hc")

let test_bgp_sessions () =
  let s = Simulate.run_exn (bgp_nets ()) in
  let sess = Bgp.sessions s.net in
  (* 4 bidirectional sessions = 8 directed ones. *)
  check Alcotest.int "directed sessions" 8 (List.length sess);
  let ebgp = List.filter (fun x -> x.Bgp.s_ebgp) sess in
  check Alcotest.int "ebgp directed sessions" 6 (List.length ebgp)

let test_loop_detection () =
  (* Hand-built FIBs that forward h1's return traffic in a circle: the
     walker must report the loop rather than diverge. *)
  let s = Simulate.run_exn (example_net ()) in
  let open Netcore in
  let dst = Prefix.of_string_exn "10.4.4.0/24" in
  let route nh =
    {
      Fib.rt_prefix = dst;
      rt_proto = Fib.Ospf;
      rt_metric = 1;
      rt_nexthops = [ { Fib.nh_router = nh; nh_iface = "Eth0" } ];
    }
  in
  let fibs =
    Device.Smap.empty
    |> Device.Smap.add "r1" (Fib.add_candidate (route "r3") Fib.empty)
    |> Device.Smap.add "r3" (Fib.add_candidate (route "r2") Fib.empty)
    |> Device.Smap.add "r2" (Fib.add_candidate (route "r3") Fib.empty)
  in
  let t = Dataplane.traceroute s.net fibs ~src:"h1" ~dst:"h4" in
  check paths_t "no delivery" [] t.delivered;
  check Alcotest.bool "loop recorded" true (t.looped <> []);
  (match t.looped with
  | walk :: _ ->
      check Alcotest.string "loop revisits r3" "r3"
        (List.nth walk (List.length walk - 1))
  | [] -> ())

let test_truncation () =
  (* A tiny path cap must mark the trace as truncated on an ECMP fan. *)
  let s = Simulate.run_exn (Netgen.Nets.configs (Netgen.Nets.find "G")) in
  let t =
    Dataplane.traceroute ~max_paths:2 s.net s.fibs ~src:"h-edge0-0-0"
      ~dst:"h-edge1-0-0"
  in
  check Alcotest.bool "truncated" true t.truncated;
  check Alcotest.bool "capped" true (List.length t.delivered <= 2)

let test_fib_lpm () =
  let open Netcore in
  let fib =
    Fib.empty
    |> Fib.add_candidate
         {
           Fib.rt_prefix = Prefix.of_string_exn "10.0.0.0/8";
           rt_proto = Fib.Ospf;
           rt_metric = 5;
           rt_nexthops = [ { Fib.nh_router = "a"; nh_iface = "e0" } ];
         }
    |> Fib.add_candidate
         {
           Fib.rt_prefix = Prefix.of_string_exn "10.4.0.0/16";
           rt_proto = Fib.Ospf;
           rt_metric = 9;
           rt_nexthops = [ { Fib.nh_router = "b"; nh_iface = "e1" } ];
         }
  in
  (match Fib.lookup fib (Ipv4.of_string_exn "10.4.4.4") with
  | Some r ->
      check Alcotest.(list string) "longest match" [ "b" ] (Fib.nexthop_names r.rt_nexthops)
  | None -> Alcotest.fail "expected route");
  match Fib.lookup fib (Ipv4.of_string_exn "10.5.0.1") with
  | Some r ->
      check Alcotest.(list string) "short match" [ "a" ] (Fib.nexthop_names r.rt_nexthops)
  | None -> Alcotest.fail "expected route"

(* A FIB holds one int per slot, its key array and its distinct bodies:
   no slot has a heap block of its own. The snapshot's FIB map is
   bounded by its slots, its distinct key arrays (the representation's
   first field, counted once however many routers share one), its
   bodies, and per router a map node, the FIB record and the router's
   name. A per-slot block of two words or more breaks the bound. *)
let test_fib_shape () =
  List.iter
    (fun id ->
      let s = Simulate.run_exn (Netgen.Nets.configs (Netgen.Nets.find id)) in
      let words v = Obj.reachable_words (Obj.repr v) in
      let key_arrays =
        Device.Smap.fold
          (fun _ fib acc ->
            let k = Obj.field (Obj.repr fib) 0 in
            if List.memq k acc then acc else k :: acc)
          s.fibs []
      in
      let slots =
        Device.Smap.fold (fun _ fib n -> n + List.length (Fib.routes fib)) s.fibs 0
      in
      (* Every router's bodies together, so next hops that bodies share
         count once, as they do in the map. *)
      let bodies =
        Device.Smap.fold (fun _ fib acc -> Fib.map_bodies Fun.id fib :: acc) s.fibs []
      in
      let bound =
        slots + words key_arrays + words bodies + (16 * Device.Smap.cardinal s.fibs)
      in
      let got = words s.fibs in
      if got > bound then
        Alcotest.failf "net %s: FIB map is %d words for %d slots, above the bound %d" id got
          slots bound)
    [ "D"; "H" ]

let test_fib_admin_distance () =
  let open Netcore in
  let p = Prefix.of_string_exn "10.4.0.0/16" in
  let route proto metric nh =
    {
      Fib.rt_prefix = p;
      rt_proto = proto;
      rt_metric = metric;
      rt_nexthops = [ { Fib.nh_router = nh; nh_iface = "e" } ];
    }
  in
  let fib =
    Fib.empty
    |> Fib.add_candidate (route Fib.Rip 3 "via-rip")
    |> Fib.add_candidate (route Fib.Ospf 20 "via-ospf")
    |> Fib.add_candidate (route Fib.Ibgp 1 "via-ibgp")
  in
  (match Fib.find fib p with
  | Some r ->
      check Alcotest.(list string) "ospf beats rip and ibgp" [ "via-ospf" ]
        (Fib.nexthop_names r.rt_nexthops)
  | None -> Alcotest.fail "route missing");
  (* Equal proto+metric merges ECMP next hops. *)
  let fib = Fib.add_candidate (route Fib.Ospf 20 "via-ospf2") fib in
  match Fib.find fib p with
  | Some r ->
      check Alcotest.(list string) "ecmp merge" [ "via-ospf"; "via-ospf2" ]
        (Fib.nexthop_names r.rt_nexthops)
  | None -> Alcotest.fail "route missing"

(* ---------------- qcheck: simulator soundness on random nets ---------------- *)

let gen_wan =
  QCheck2.Gen.(
    map2
      (fun (n, extra) seed ->
        Netgen.Wan.waxman ~seed ~name:"rq" ~routers:n
          ~router_links:(n - 1 + extra)
          ~hosts:(min n 5))
      (pair (int_range 4 12) (int_range 0 8))
      (int_bound 100000))

let prop_metric_decreases =
  (* Bellman consistency: along every next hop of an IGP route, the
     neighbor's metric for the same prefix is strictly smaller (or the
     prefix is connected there). A violation would mean the shortest-path
     engines install inconsistent FIBs — the root of forwarding loops. *)
  QCheck2.Test.make ~name:"IGP metrics strictly decrease along next hops"
    ~count:30 gen_wan (fun spec ->
      let snap = Simulate.run_exn (Netgen.Emit.emit spec) in
      Device.Smap.for_all
        (fun _ fib ->
          List.for_all
            (fun (r : Fib.route) ->
              r.rt_proto = Fib.Connected
              || List.for_all
                   (fun (nh : Fib.nexthop) ->
                     match Device.Smap.find_opt nh.nh_router snap.fibs with
                     | None -> false
                     | Some nfib -> (
                         match Fib.find nfib r.rt_prefix with
                         | Some nr ->
                             nr.rt_proto = Fib.Connected
                             || nr.rt_metric < r.rt_metric
                         | None -> false))
                   r.rt_nexthops)
            (Fib.routes fib))
        snap.fibs)

let prop_all_pairs_routable =
  QCheck2.Test.make ~name:"random WANs are fully routable" ~count:30 gen_wan
    (fun spec ->
      let snap = Simulate.run_exn (Netgen.Emit.emit spec) in
      let dp = Simulate.dataplane snap in
      let hosts = List.map fst (Device.Smap.bindings snap.net.hosts) in
      List.for_all
        (fun s ->
          List.for_all
            (fun d ->
              String.equal s d
              ||
              let t = Option.get (Routing.Dataplane.trace dp ~src:s ~dst:d) in
              t.Dataplane.delivered <> [] && t.looped = [])
            hosts)
        hosts)

(* A 32-bit address with live high bits (int_bound alone never sets them). *)
let addr_gen =
  QCheck2.Gen.(
    map2 (fun hi lo -> (hi lsl 16) lxor lo) (int_bound 0xFFFF) (int_bound 0xFFFF))

(* A body as the naive reference and route views see it. *)
let body_of (r : Fib.route) =
  { Fib.proto = r.rt_proto; metric = r.rt_metric; nexthops = r.rt_nexthops }

let probed fib d = match Fib.probe_lpm fib d with -1 -> None | i -> Some (Fib.body fib i)

let prop_lpm_equiv =
  (* The int-key probe must answer exactly like the 33-probe reference
     lookup, including on prefix network addresses (match boundaries)
     and the empty-FIB / default-route corners small_list covers. *)
  QCheck2.Test.make ~name:"probe LPM = 33-probe lookup" ~count:300
    QCheck2.Gen.(
      pair (small_list (pair addr_gen (int_bound 32))) (small_list addr_gen))
    (fun (pres, addrs) ->
      let fib =
        List.fold_left
          (fun fib (a, len) ->
            let p = Netcore.Prefix.v (Netcore.Ipv4.of_int a) len in
            Fib.add_candidate
              {
                Fib.rt_prefix = p;
                rt_proto = Fib.Ospf;
                rt_metric = len;
                rt_nexthops =
                  [ { Fib.nh_router = Netcore.Prefix.to_string p; nh_iface = "e0" } ];
              }
              fib)
          Fib.empty pres
      in
      let probes =
        List.map (fun a -> Netcore.Ipv4.of_int a) addrs
        @ List.concat_map
            (fun (a, len) ->
              let p = Netcore.Prefix.v (Netcore.Ipv4.of_int a) len in
              [ Netcore.Ipv4.of_int a; Netcore.Prefix.network p ])
            pres
      in
      List.for_all
        (fun a -> Option.map body_of (Fib.lookup fib a) = probed fib (Fib.dest a))
        probes)

(* Route generators of the base-FIB properties. Prefixes come from a
   small pool (host bits set, so canonicalization matters) so local and
   IGP candidates collide, and metrics and next hops from small pools so
   equal costs merge next hops. *)
let gen_prefix =
  QCheck2.Gen.map2
    (fun a len -> Netcore.Prefix.v (Netcore.Ipv4.of_int ((a lsl 22) lor 0x155)) len)
    (QCheck2.Gen.int_bound 7) (QCheck2.Gen.oneofl [ 8; 10; 16; 24 ])

let gen_nexthop =
  QCheck2.Gen.map2
    (fun r i -> { Fib.nh_router = r; nh_iface = i })
    (QCheck2.Gen.oneofl [ "r1"; "r2"; "r3" ]) (QCheck2.Gen.oneofl [ "e0"; "e1" ])

let gen_route protos =
  QCheck2.Gen.(
    map4
      (fun p proto metric nhs ->
        { Fib.rt_prefix = p; rt_proto = proto; rt_metric = metric; rt_nexthops = nhs })
      gen_prefix (oneofl protos) (int_bound 2) (list_size (int_range 1 2) gen_nexthop))

let gen_others =
  QCheck2.Gen.small_list (gen_route [ Fib.Connected; Fib.Static; Fib.Rip; Fib.Eigrp ])

let gen_selection = QCheck2.Gen.small_list (gen_route [ Fib.Ospf ])

(* A selection as OSPF emits it: one route per prefix, ascending. *)
let ascending rs =
  List.sort_uniq (fun (a : Fib.route) b -> Netcore.Prefix.compare a.rt_prefix b.rt_prefix) rs

let fold_into fib rs = List.fold_left (fun t r -> Fib.add_candidate r t) fib rs

(* [Fib.fill] over a selection: its keys, its bodies, and a pick of the
   hit ones. *)
let fill_with others sel hit =
  let sel = Array.of_list sel in
  Fib.fill others
    (Array.map (fun (r : Fib.route) -> Fib.key r.rt_prefix) sel)
    (Array.map body_of sel)
    (fun i -> if hit i then i else -1)

(* [Fib.fill], the slot writer of the base-FIB constructor: merging a
   selection into an others FIB equals the [add_candidate] fold, in
   either order, and leaves the others FIB itself when nothing hits. *)
let prop_fib_fill =
  QCheck2.Test.make ~name:"base FIB: Fib.fill = add_candidate fold in any order"
    ~count:500
    QCheck2.Gen.(triple gen_others gen_selection (small_list bool))
    (fun (others, sel, hits) ->
      let others = Fib.of_candidates others in
      let sel = ascending sel in
      let hit i = Option.value ~default:true (List.nth_opt hits i) in
      let picked = List.filteri (fun i _ -> hit i) sel in
      let got = fill_with others sel hit in
      got = fold_into others picked
      && got = fold_into others (List.rev picked)
      && got = Fib.of_candidates (Fib.routes others @ picked)
      && (picked <> [] || got == others))

(* A FIB's keys, as a state's table holds them. *)
let keys_of fib =
  Array.of_list (List.map (fun (r : Fib.route) -> Fib.key r.rt_prefix) (Fib.routes fib))

(* [Fib.replace]'s candidates for a prefix: [fib]'s slot, if any, then
   the route's. *)
let slot_with fib p rs =
  Option.to_list (Option.map body_of (Fib.find fib p)) @ List.map body_of rs

(* The engine's slot patch at the FIB level: from the base FIB of one
   (others, selection) pair, rebuilding the prefixes whose selection
   changed plus those whose others slot changed gives the base FIB of
   the new pair, and the old FIB itself when nothing moved. *)
let prop_fib_slot_patch =
  QCheck2.Test.make ~name:"base FIB: slot patch = build from the new inputs" ~count:1000
    QCheck2.Gen.(quad gen_others gen_others gen_selection gen_selection)
    (fun (o0, o1, s0, s1) ->
      let o0 = Fib.of_candidates o0 and s0 = ascending s0 and s1 = ascending s1 in
      (* Half the cases keep the others FIB, physically. *)
      let o1 = if List.length s1 mod 2 = 0 then o0 else Fib.of_candidates o1 in
      let fib0 = fold_into o0 s0 and want = fold_into o1 s1 in
      let find p rs =
        List.find_opt (fun (r : Fib.route) -> Netcore.Prefix.equal r.rt_prefix p) rs
      in
      let sel_changed =
        List.filter_map
          (fun (r : Fib.route) ->
            if find r.rt_prefix s0 = find r.rt_prefix s1 then None else Some r.rt_prefix)
          (s0 @ s1)
      in
      let ps =
        List.sort_uniq Netcore.Prefix.compare (sel_changed @ Fib.changed_prefixes o0 o1)
      in
      let got =
        Fib.replace fib0 ~keys:(keys_of want)
          (List.map (fun p -> (p, slot_with o1 p (Option.to_list (find p s1)))) ps)
      in
      got = want && (got == fib0) = (want = fib0))

(* The naive FIB that only tests use: a route list sorted by prefix,
   each slot the fold of its candidates by the merge rule — lower
   administrative distance, then lower metric, exact ties merging next
   hops. *)
module Naive_fib = struct
  let merge_into (existing : Fib.route) (r : Fib.route) =
    let rank (r : Fib.route) = (Fib.admin_distance r.rt_proto, r.rt_metric) in
    match compare (rank r) (rank existing) with
    | c when c < 0 -> r
    | 0 ->
        {
          existing with
          rt_nexthops =
            List.sort_uniq
              (fun (a : Fib.nexthop) b ->
                compare (a.nh_router, a.nh_iface) (b.nh_router, b.nh_iface))
              (existing.rt_nexthops @ r.rt_nexthops);
        }
    | _ -> existing

  let add (r : Fib.route) rs =
    let rec go = function
      | [] -> [ r ]
      | (x : Fib.route) :: tl -> (
          match Netcore.Prefix.compare r.rt_prefix x.rt_prefix with
          | 0 -> merge_into x r :: tl
          | c when c < 0 -> r :: x :: tl
          | _ -> x :: go tl)
    in
    go rs

  let of_list cs = List.fold_left (fun rs r -> add r rs) [] cs

  let find rs p =
    List.find_opt (fun (r : Fib.route) -> Netcore.Prefix.equal r.rt_prefix p) rs

  let lookup rs a =
    List.fold_left
      (fun best (r : Fib.route) ->
        if not (Netcore.Prefix.mem a r.rt_prefix) then best
        else
          match best with
          | Some (b : Fib.route)
            when Netcore.Prefix.length b.rt_prefix >= Netcore.Prefix.length r.rt_prefix ->
              best
          | _ -> Some r)
      None rs
end

(* Every construction path builds one FIB from the same candidates —
   the [add_candidate] fold in both orders, [add_candidates] from empty
   and onto the others FIB (the BGP step), [of_candidates], [fill] of
   the OSPF selection into the others FIB, and [replace] of every slot
   of an unrelated FIB (with and without the result's keys to share)
   and of a re-costed one — and each equals the naive reference through
   every reader, and the others under [=], [Hashtbl.hash] and
   [Marshal] without sharing (with sharing, the bytes also follow which
   of the candidates' equal values are physically one, as QCheck's
   shrinker makes them). *)
let prop_fib_paths_equal_reference =
  QCheck2.Test.make ~name:"every FIB construction path = naive reference" ~count:500
    QCheck2.Gen.(quad gen_others gen_selection gen_others (small_list addr_gen))
    (fun (others, sel, junk, addrs) ->
      let sel = ascending sel in
      let cs = others @ sel in
      let want = Naive_fib.of_list cs in
      let junk = Fib.of_candidates junk in
      (* [junk]'s slots re-costed: the same prefixes as [cs], so [replace]
         keeps its key array. *)
      let recosted =
        Fib.of_candidates
          (List.map (fun (r : Fib.route) -> { r with rt_metric = r.rt_metric + 5 }) cs)
      in
      (* Every prefix [gen_prefix] can draw, so the rebuild also lists
         prefixes held by neither side. *)
      let prefixes =
        List.sort_uniq Netcore.Prefix.compare
          (List.concat_map
             (fun a ->
               List.map
                 (fun len -> Netcore.Prefix.v (Netcore.Ipv4.of_int ((a lsl 22) lor 0x155)) len)
                 [ 8; 10; 16; 24 ])
             (List.init 8 Fun.id))
      in
      let by_prefix p =
        List.filter (fun (r : Fib.route) -> Netcore.Prefix.equal r.rt_prefix p) cs
      in
      let rebuild p = (p, List.map body_of (by_prefix p)) in
      let builds =
        [
          fold_into Fib.empty cs;
          fold_into Fib.empty (List.rev cs);
          Fib.add_candidates cs Fib.empty;
          Fib.add_candidates sel (Fib.of_candidates others);
          Fib.of_candidates cs;
          fill_with (Fib.of_candidates others) sel (fun _ -> true);
          Fib.replace junk ~keys:[||] (List.map rebuild prefixes);
          Fib.replace junk ~keys:(keys_of recosted) (List.map rebuild prefixes);
          Fib.replace recosted ~keys:[||] (List.map rebuild prefixes);
        ]
      in
      let addrs =
        List.map Netcore.Ipv4.of_int addrs
        @ List.concat_map
            (fun p -> [ Netcore.Prefix.network p; Netcore.Prefix.host p 1 ])
            prefixes
      in
      let agrees fib =
        Fib.routes fib = want
        && List.for_all (fun p -> Fib.find fib p = Naive_fib.find want p) prefixes
        && List.for_all
             (fun a ->
               let w = Naive_fib.lookup want a in
               Fib.lookup fib a = w && probed fib (Fib.dest a) = Option.map body_of w)
             addrs
      in
      let first = List.hd builds in
      List.for_all agrees builds
      && List.for_all
           (fun fib ->
             fib = first
             && Hashtbl.hash fib = Hashtbl.hash first
             && Marshal.to_string fib [ No_sharing ] = Marshal.to_string first [ No_sharing ])
           builds)

let prop_csr_dijkstra_equiv =
  (* The array Dijkstra on an interned CSR graph must produce the same
     distance map as the reference persistent-queue Dijkstra over string
     maps, on arbitrary weighted digraphs and multi-source seeds. *)
  QCheck2.Test.make ~name:"compiled Dijkstra = Smap Dijkstra" ~count:300
    QCheck2.Gen.(
      pair
        (small_list (pair (pair (int_bound 15) (int_bound 15)) (int_range 1 20)))
        (small_list (pair (int_bound 15) (int_bound 10))))
    (fun (edges, seeds) ->
      let name i = "r" ^ string_of_int i in
      let adj =
        List.fold_left
          (fun m ((u, v), c) ->
            Device.Smap.update (name u)
              (function
                | None -> Some [ (name v, c) ] | Some l -> Some ((name v, c) :: l))
              m)
          Device.Smap.empty edges
      in
      let reference =
        Crucible.Reference.dijkstra
          ~succ:(fun v -> Option.value ~default:[] (Device.Smap.find_opt v adj))
          (List.map (fun (s, c) -> (name s, c)) seeds)
      in
      let it = Netcore.Interner.create () in
      let id i = Netcore.Interner.intern it (name i) in
      let iedges = List.map (fun ((u, v), c) -> (id u, id v, c)) edges in
      let iseeds = List.map (fun (s, c) -> (id s, c)) seeds in
      let csr = Csr.of_edges ~n:(Netcore.Interner.length it) iedges in
      let dist = Csr.dijkstra csr ~seeds:iseeds in
      let from_array = ref Device.Smap.empty in
      Netcore.Interner.iter it (fun i n ->
          if dist.(i) < max_int then
            from_array := Device.Smap.add n dist.(i) !from_array);
      Device.Smap.equal Int.equal reference !from_array)

let prop_kernels_equiv =
  QCheck2.Test.make ~name:"compiled kernels agree with the reference end to end"
    ~count:20 gen_wan (fun spec ->
      let snap = Simulate.run_exn (Netgen.Emit.emit spec) in
      match Crucible.Oracle.kernel_divergence snap with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "diverges on %s" what)

(* Generated networks with packet filters: one ACL denying traffic to
   one host prefix and one permit-any ACL, each bound to a random router
   interface in a random direction. Extraction cannot use the suffix
   memo on such a network and walks the representative pairs one by
   one. *)
let acl_configs (seed, picks) =
  let spec = Crucible.Gen.spec ~seed () in
  let configs = Netgen.Emit.emit spec in
  let pick i l = List.nth l (List.nth picks i mod List.length l) in
  let victim = fst (pick 0 spec.Netgen.Netspec.hosts) in
  let victim_prefix =
    let c =
      List.find (fun (c : Configlang.Ast.config) -> c.hostname = victim) configs
    in
    Option.get (Configlang.Ast.interface_prefix (List.hd c.interfaces))
  in
  let rule action dst =
    { Configlang.Ast.acl_action = action; acl_src = None; acl_dst = dst }
  in
  let deny_host =
    {
      Configlang.Ast.acl_name = "DENYHOST";
      acl_rules =
        [
          rule Configlang.Ast.Deny (Some victim_prefix);
          rule Configlang.Ast.Permit None;
        ];
    }
  in
  let permit_any =
    {
      Configlang.Ast.acl_name = "PERMITANY";
      acl_rules = [ rule Configlang.Ast.Permit None ];
    }
  in
  (* Bind [acl] on a random interface of a random router. *)
  let bind configs (acl : Configlang.Ast.acl) k =
    let router = pick k spec.routers in
    List.map
      (fun (c : Configlang.Ast.config) ->
        if c.hostname <> router then c
        else
          let target = (pick (k + 1) c.interfaces).if_name in
          let inbound = List.nth picks (k + 2) mod 2 = 0 in
          let interfaces =
            List.map
              (fun (i : Configlang.Ast.interface) ->
                if i.if_name <> target then i
                else if inbound then
                  { i with if_acl_in = Some acl.acl_name }
                else { i with if_acl_out = Some acl.acl_name })
              c.interfaces
          in
          { c with interfaces; acls = acl :: c.acls })
      configs
  in
  bind (bind configs deny_host 1) permit_any 4

let acl_net_gen =
  QCheck2.Gen.(pair (int_bound 100000) (list_repeat 7 (int_bound 100000)))

(* Every trace must still equal the reference's plain traceroute (the
   data-plane part of [kernel_divergence]). *)
let prop_acl_extraction =
  QCheck2.Test.make ~name:"extraction with packet filters = reference"
    ~count:40 acl_net_gen
    (fun net ->
      match Crucible.Oracle.kernel_divergence (Simulate.run_exn (acl_configs net)) with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "diverges on %s" what)

(* [extract ~hosts] holds exactly the pairs among [hosts], each with the
   full extraction's trace. [keep] picks the hosts by position. *)
let partial_extraction_agrees ~keep (s : Simulate.snapshot) =
  let hosts =
    List.filteri (fun i _ -> keep i) (List.map fst (Device.Smap.bindings s.net.hosts))
  in
  let full = Dataplane.extract s.net s.fibs in
  let part = Dataplane.extract ~hosts s.net s.fibs in
  let n = List.length hosts in
  Dataplane.fold (fun _ _ k -> k + 1) part 0 = n * (n - 1)
  && List.for_all
       (fun src ->
         List.for_all
           (fun dst ->
             String.equal src dst
             || Dataplane.trace part ~src ~dst = Dataplane.trace full ~src ~dst)
           hosts)
       hosts

let test_extract_hosts_catalog () =
  List.iter
    (fun (entry : Netgen.Nets.entry) ->
      let s = Simulate.run_exn (Netgen.Nets.configs entry) in
      List.iter
        (fun (what, keep) ->
          if not (partial_extraction_agrees ~keep s) then
            Alcotest.failf "net %s: extract ~hosts (%s) differs from the full plane"
              entry.id what)
        [ ("odd hosts", fun i -> i mod 2 = 1); ("all but the first", fun i -> i > 0) ])
    (Netgen.Nets.all ())

let prop_extract_hosts_acl =
  QCheck2.Test.make ~name:"extract ~hosts = full extraction under packet filters"
    ~count:40
    QCheck2.Gen.(pair acl_net_gen (int_bound 1000))
    (fun (net, mask) ->
      partial_extraction_agrees
        ~keep:(fun i -> (mask lsr (i mod 10)) land 1 = 1)
        (Simulate.run_exn (acl_configs net)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_metric_decreases;
      prop_all_pairs_routable;
      prop_lpm_equiv;
      prop_fib_fill;
      prop_fib_slot_patch;
      prop_fib_paths_equal_reference;
      prop_csr_dijkstra_equiv;
      prop_kernels_equiv;
      prop_acl_extraction;
      prop_extract_hosts_acl;
    ]

(* ---------------- worker pool ---------------- *)

let test_pool_map_matches () =
  let pool = Netcore.Pool.create ~jobs:4 () in
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  check Alcotest.(list int) "order and values" (List.map f xs)
    (Netcore.Pool.map pool f xs);
  (* Nested maps must not deadlock the helping scheduler. *)
  let ys = List.init 10 Fun.id in
  check
    Alcotest.(list (list int))
    "nested"
    (List.map (fun x -> List.map (fun y -> x + y) ys) ys)
    (Netcore.Pool.map pool (fun x -> Netcore.Pool.map pool (fun y -> x + y) ys) ys);
  Netcore.Pool.shutdown pool

let test_pool_sequential () =
  let pool = Netcore.Pool.create ~jobs:1 () in
  let xs = List.init 10 Fun.id in
  check Alcotest.(list int) "jobs=1" (List.map succ xs)
    (Netcore.Pool.map pool succ xs);
  Netcore.Pool.shutdown pool

(* Two domains racing the lazy init must observe the same shared pool —
   each used to build its own, one leaking its workers forever. *)
let test_pool_default_race () =
  Netcore.Pool.set_default_jobs 2;
  let spawners =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Netcore.Pool.default ()))
  in
  let pools = List.map Domain.join spawners in
  let p0 = Netcore.Pool.default () in
  List.iteri
    (fun i p ->
      if not (p == p0) then
        Alcotest.failf "domain %d saw a different shared pool" i)
    pools;
  (* Resizing while a map is in flight on the displaced pool: the batch
     must complete normally. *)
  let xs = List.init 200 Fun.id in
  let f x = List.fold_left ( + ) x (List.init 500 Fun.id) in
  let d = Domain.spawn (fun () -> Netcore.Pool.map p0 f xs) in
  Netcore.Pool.set_default_jobs 2;
  check Alcotest.(list int) "in-flight map completes" (List.map f xs)
    (Domain.join d);
  if Netcore.Pool.default () == p0 then
    Alcotest.fail "set_default_jobs did not replace the shared pool"

exception Boom

let test_pool_exception () =
  let pool = Netcore.Pool.create ~jobs:4 () in
  (try
     ignore
       (Netcore.Pool.map pool
          (fun x -> if x = 37 then raise Boom else x)
          (List.init 64 Fun.id));
     Alcotest.fail "expected Boom"
   with Boom -> ());
  (* The pool survives a batch that raised and remains usable. *)
  check Alcotest.(list int) "pool alive" [ 2; 3 ]
    (Netcore.Pool.map pool succ [ 1; 2 ]);
  Netcore.Pool.shutdown pool

(* ---------------- engine: incremental == from-scratch ---------------- *)

(* One step of the random edit walk the engine tests drive: deny filters
   (the fixpoints' edit), their rollback, and structural interface
   additions (fake hosts' edit). Returns the edited config list; may
   return the input unchanged when no edit point exists. *)
let random_edit ~rng ~denies ~structurals (net : Device.network) configs =
  let hps = List.map fst (Simulate.host_prefixes net) in
  let adj_routers =
    List.filter (fun (_, adjs) -> adjs <> []) (Device.Smap.bindings net.adjs)
  in
  let kind =
    let k = Netcore.Rng.int rng 10 in
    if k < 6 then `Deny
    else if k < 8 then if !denies = [] then `Deny else `Undeny
    else if !structurals >= 2 then `Deny
    else `Structural
  in
  match kind with
  | `Deny -> (
      match (adj_routers, hps) with
      | [], _ | _, [] -> configs
      | _ -> (
          let r, adjs = Netcore.Rng.pick rng adj_routers in
          let a = Netcore.Rng.pick rng adjs in
          let hp = Netcore.Rng.pick rng hps in
          match Confmask.Attach.point net r a.Device.a_to with
          | None -> configs
          | Some at ->
              denies := (r, at, hp) :: !denies;
              Confmask.Edits.update configs r (fun c ->
                  Confmask.Attach.deny_at c at hp)))
  | `Undeny ->
      let ((r, at, hp) as d) = Netcore.Rng.pick rng !denies in
      denies := List.filter (fun x -> x <> d) !denies;
      Confmask.Edits.update configs r (fun c ->
          Confmask.Attach.undeny_at c at hp)
  | `Structural ->
      incr structurals;
      let routers = List.map fst (Device.Smap.bindings net.routers) in
      let r = Netcore.Rng.pick rng routers in
      let alloc =
        Netcore.Prefix.alloc_create
          ~avoid:(Confmask.Edits.used_prefixes configs)
          ()
      in
      let subnet = Netcore.Prefix.alloc_fresh alloc ~len:24 in
      let addr = Netcore.Prefix.host subnet 1 in
      Confmask.Edits.update configs r (fun c ->
          let name = Confmask.Edits.fresh_iface_name c in
          let c =
            Confmask.Edits.add_interface c ~name ~addr ~plen:24
              ~desc:"prop-test" ()
          in
          Confmask.Edits.add_igp_network c subnet)

(* Drive the incremental engine through the random edit walk, asserting
   after every step that its FIBs equal a from-scratch [Simulate.run]. *)
let engine_equiv_case ~seed (entry : Netgen.Nets.entry) () =
  let rng = Netcore.Rng.create seed in
  let configs = ref (Netgen.Nets.configs entry) in
  let eng = ref (Engine.of_configs_exn !configs) in
  let denies = ref [] in
  let structurals = ref 0 in
  let agree step =
    let fresh = Simulate.run_exn !configs in
    if not (Device.Smap.equal ( = ) (Engine.fibs !eng) fresh.fibs) then
      Alcotest.failf "net %s seed %d: FIBs diverge from scratch after edit %d"
        entry.id seed step
  in
  agree 0;
  for step = 1 to 8 do
    configs :=
      random_edit ~rng ~denies ~structurals (Engine.network !eng) !configs;
    eng := Engine.apply_edit_exn !eng !configs;
    agree step
  done

(* The routers whose FIB differs between two FIB maps, sorted by name. *)
let fib_changes before after =
  Device.Smap.merge
    (fun _ a b -> if a = b then None else Some ())
    before after
  |> Device.Smap.bindings |> List.map fst

(* Algorithm 2's shape: one edit denies many (router, host prefix) pairs
   across many routers — each along the router's current next hop, so
   the edit moves routes — and the next edit rolls most of them back,
   then a no-op edit. After each step the FIBs equal a from-scratch
   [Simulate.run], and [Engine.delta] is exactly the set of routers whose
   final FIB changed: [Route_equiv]'s scan rescans no router outside
   it. *)
let engine_delta_case ~seed ~id configs () =
  let rng = Netcore.Rng.create seed in
  let eng = ref (Engine.of_configs_exn configs) in
  check Alcotest.(option (list string)) "from-scratch build has no delta" None
    (Engine.delta !eng);
  let step name configs =
    let before = Engine.fibs !eng in
    eng := Engine.apply_edit_exn !eng configs;
    let fresh = Simulate.run_exn configs in
    if not (Device.Smap.equal ( = ) (Engine.fibs !eng) fresh.fibs) then
      Alcotest.failf "net %s seed %d: FIBs diverge from scratch after %s"
        id seed name;
    let want = fib_changes before (Engine.fibs !eng) in
    check Alcotest.(option (list string))
      (Printf.sprintf "net %s seed %d: delta after %s" id seed name)
      (Some want) (Engine.delta !eng);
    want
  in
  let net = Engine.network !eng in
  let configs = Engine.configs !eng in
  let hps = List.map fst (Simulate.host_prefixes net) in
  let denies =
    Device.Smap.fold
      (fun r fib acc ->
        List.fold_left
          (fun acc hp ->
            match Fib.find fib hp with
            | Some { rt_nexthops = nh :: _; _ } when Netcore.Rng.int rng 3 = 0
              -> (
                match Confmask.Attach.point net r nh.nh_router with
                | Some at -> (r, at, hp) :: acc
                | None -> acc)
            | _ -> acc)
          acc hps)
      (Engine.fibs !eng) []
  in
  let apply f configs denies =
    List.fold_left
      (fun configs (r, at, hp) ->
        Confmask.Edits.update configs r (fun c -> f c at hp))
      configs denies
  in
  let denied = apply Confmask.Attach.deny_at configs denies in
  let moved = step "the noise edit" denied in
  if denies <> [] && moved = [] then
    Alcotest.failf "net %s seed %d: %d denies moved no FIB" id seed
      (List.length denies);
  let rollback = List.filteri (fun i _ -> i mod 4 <> 0) denies in
  let rolled = apply Confmask.Attach.undeny_at denied rollback in
  ignore (step "the rollback edit" rolled);
  check Alcotest.(list string) "a no-op edit changes no FIB" []
    (step "a no-op edit" rolled)

(* A catalog net whose OSPF routers also run RIP, as emitted for the
   same topology. Their IGP candidates are [ospf @ rip], which is not
   sorted by prefix, so the engine must build their base FIBs in full
   rather than patch them. A denied OSPF route gives way to the RIP one,
   so the noise edit moves FIBs. *)
let with_igp igp id =
  let entry = Netgen.Nets.find id in
  let other = Netgen.Emit.emit { entry.spec with igp } in
  List.map
    (fun (c : Configlang.Ast.config) ->
      match
        List.find_opt (fun (o : Configlang.Ast.config) -> o.hostname = c.hostname) other
      with
      | Some o when c.ospf <> None -> { c with rip = o.rip; eigrp = o.eigrp }
      | _ -> c)
    (Netgen.Nets.configs entry)

let with_rip = with_igp Netgen.Netspec.Rip
let with_eigrp = with_igp Netgen.Netspec.Eigrp

(* A deny binds to every IGP the router runs. On a router running OSPF
   and EIGRP, EIGRP's route (administrative distance 90) is the one in
   the FIB, and the deny must remove its next hop too. *)
let test_deny_binds_every_igp () =
  let configs = with_eigrp "A" in
  let net = Device.compile_exn configs in
  let fibs = (Simulate.run_exn configs).fibs in
  let target =
    Device.Smap.fold
      (fun r fib acc ->
        match acc with
        | Some _ -> acc
        | None ->
            List.find_map
              (fun (hp, _) ->
                match Fib.find fib hp with
                | Some ({ rt_proto = Fib.Eigrp; rt_nexthops = nh :: _; _ } as route) ->
                    Some (r, hp, nh, route)
                | _ -> None)
              (Simulate.host_prefixes net))
      fibs None
  in
  match target with
  | None -> Alcotest.fail "no EIGRP route toward a host on A+eigrp"
  | Some (r, hp, nh, _) -> (
      match Confmask.Attach.point net r nh.nh_router with
      | None -> Alcotest.fail "no attachment point"
      | Some at ->
          let configs' =
            Confmask.Edits.update configs r (fun c -> Confmask.Attach.deny_at c at hp)
          in
          let fib' = Device.Smap.find r (Simulate.run_exn configs').fibs in
          let via =
            match Fib.find fib' hp with
            | Some route -> List.mem nh route.rt_nexthops
            | None -> false
          in
          check Alcotest.bool "the denied EIGRP next hop is gone" false via)

(* A no-op edit must take the BGP-skip gate (the fingerprint-only test),
   not fall through to a recompute, and must leave the FIBs intact. Runs
   with the shadow self-check on, so the skipped result is also verified
   against a from-scratch simulation. *)
let test_engine_bgp_skip () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "A") in
  let skip = Netcore.Telemetry.counter "engine.bgp_skip" in
  let compute = Netcore.Telemetry.counter "engine.bgp_compute" in
  Netcore.Telemetry.set_enabled true;
  Engine.set_selfcheck true;
  Fun.protect ~finally:(fun () ->
      Netcore.Telemetry.set_enabled false;
      Engine.set_selfcheck false)
  @@ fun () ->
  let eng = Engine.of_configs_exn configs in
  let s0 = Netcore.Telemetry.value skip in
  let c0 = Netcore.Telemetry.value compute in
  let eng' = Engine.apply_edit_exn eng configs in
  check Alcotest.int "no-op edit skips the BGP fixpoint" (s0 + 1)
    (Netcore.Telemetry.value skip);
  check Alcotest.int "no BGP recompute on a no-op edit" c0
    (Netcore.Telemetry.value compute);
  check Alcotest.bool "FIBs preserved" true
    (Device.Smap.equal ( = ) (Engine.fibs eng) (Engine.fibs eng'))

(* ---------------- engine: persistent disk cache ---------------- *)

let temp_cache_dir () =
  let f = Filename.temp_file "confmask-engine-cache" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

(* Record the random edit walk as a list of config states (initial state
   first), so the exact same workload can be replayed under different
   cache regimes. *)
let record_walk ~seed ~steps (entry : Netgen.Nets.entry) =
  let rng = Netcore.Rng.create seed in
  let configs = ref (Netgen.Nets.configs entry) in
  let eng = ref (Engine.of_configs_exn !configs) in
  let denies = ref [] in
  let structurals = ref 0 in
  let states = ref [ !configs ] in
  for _ = 1 to steps do
    configs :=
      random_edit ~rng ~denies ~structurals (Engine.network !eng) !configs;
    eng := Engine.apply_edit_exn !eng !configs;
    states := !configs :: !states
  done;
  List.rev !states

let replay ?cache states =
  match states with
  | [] -> []
  | first :: rest ->
      let eng = ref (Engine.of_configs_exn ?cache first) in
      let fibs = ref [ Engine.fibs !eng ] in
      List.iter
        (fun cfgs ->
          eng := Engine.apply_edit_exn !eng cfgs;
          fibs := Engine.fibs !eng :: !fibs)
        rest;
      List.rev !fibs

let fibs_agree a b =
  List.length a = List.length b
  && List.for_all2 (Device.Smap.equal ( = )) a b

let test_engine_disk_cache_warm_equals_cold () =
  let states = record_walk ~seed:5 ~steps:6 (Netgen.Nets.find "A") in
  let dir = temp_cache_dir () in
  let cold = replay states in
  let warm1 = replay ~cache:(Engine.open_cache dir) states in
  check Alcotest.bool "populating run equals cold" true (fibs_agree cold warm1);
  (* A fresh handle on the now-populated directory stands in for a new
     process reusing the previous one's work. *)
  Netcore.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Netcore.Telemetry.set_enabled false)
  @@ fun () ->
  let disk_counters =
    List.map Netcore.Telemetry.counter
      [ "engine.state_disk"; "engine.bgp_disk" ]
  in
  let disk_hits () =
    List.fold_left (fun a c -> a + Netcore.Telemetry.value c) 0 disk_counters
  in
  let full = Netcore.Telemetry.counter "engine.spf_full" in
  let h0 = disk_hits () in
  let f0 = Netcore.Telemetry.value full in
  let warm2 = replay ~cache:(Engine.open_cache dir) states in
  check Alcotest.bool "warm run equals cold, bit for bit" true
    (fibs_agree cold warm2);
  check Alcotest.bool "warm run restored entries from disk" true
    (disk_hits () > h0);
  check Alcotest.int "warm run never ran a full SPF" f0
    (Netcore.Telemetry.value full)

let test_engine_disk_cache_corruption () =
  let states = record_walk ~seed:11 ~steps:4 (Netgen.Nets.find "CCNP") in
  let dir = temp_cache_dir () in
  let cold = replay states in
  let _populate = replay ~cache:(Engine.open_cache dir) states in
  (* Smash every stored entry; a poisoned cache must degrade to cold,
     never be trusted. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".v" then begin
        let oc = open_out_bin (Filename.concat dir f) in
        output_string oc "\x84\x95\xa6not-an-entry";
        close_out oc
      end)
    (Sys.readdir dir);
  let warm = replay ~cache:(Engine.open_cache dir) states in
  check Alcotest.bool "corrupted cache degrades to cold, same result" true
    (fibs_agree cold warm)

let prop_engine_disk_cache =
  QCheck2.Test.make
    ~name:"engine: warm disk-cache run = cold run, bit for bit" ~count:8
    QCheck2.Gen.(
      pair (int_bound 1000)
        (int_bound (List.length (Netgen.Nets.small ()) - 1)))
    (fun (seed, idx) ->
      let entry = List.nth (Netgen.Nets.small ()) idx in
      let states = record_walk ~seed ~steps:4 entry in
      let dir = temp_cache_dir () in
      let cold = replay states in
      let warm1 = replay ~cache:(Engine.open_cache dir) states in
      let warm2 = replay ~cache:(Engine.open_cache dir) states in
      fibs_agree cold warm1 && fibs_agree cold warm2)

(* ---------------- engine: SPF extension across added links ---------------- *)

(* [f ()] and the deltas of the named telemetry counters across it. *)
let counter_deltas names f =
  Netcore.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Netcore.Telemetry.set_enabled false)
  @@ fun () ->
  let cs = List.map Netcore.Telemetry.counter names in
  let before = List.map Netcore.Telemetry.value cs in
  let x = f () in
  (x, List.map2 (fun c b -> Netcore.Telemetry.value c - b) cs before)

let spf_counters = [ "engine.spf_extend"; "engine.spf_full" ]

let ospf_only = { Crucible.Gen.default with bgp_fraction = 0.0 }

let by_prefix m =
  Device.Smap.map
    (List.sort (fun (a : Fib.route) (b : Fib.route) ->
         Netcore.Prefix.compare a.rt_prefix b.rt_prefix))
    m

(* The OSPF selection under [st] of every router of [net], read back
   from base FIBs over empty others FIBs, as {!Ospf.compute} reads it. *)
let selection st (net : Device.network) =
  let names = List.map fst (Device.Smap.bindings net.routers) in
  List.fold_left2
    (fun acc r fib ->
      match List.rev (Fib.routes fib) with [] -> acc | rs -> Device.Smap.add r rs acc)
    Device.Smap.empty names
    (Simulate.base_fibs net (Some st) (List.map (fun r -> (r, Fib.empty)) names))

(* Links at the SFE min cost shorten no path, so the engine extends the
   original's SPF state instead of recomputing it, and the result is
   [Simulate.run]'s. At the OSPF layer, the extended state
   selects exactly the cold state's routes and the naive reference's. *)
let prop_engine_extends_min_cost_links =
  QCheck2.Test.make
    ~name:"engine: min-cost links extend the original's SPF state" ~count:40
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 5))
    (fun (seed, count) ->
      let configs =
        Netgen.Emit.emit (Crucible.Gen.spec ~params:ospf_only ~seed ())
      in
      let eng0 = Engine.of_configs_exn configs in
      let net0 = Engine.network eng0 in
      let configs' =
        Crucible.Oracle.add_links ~rng:(Netcore.Rng.create seed) ~below:false
          ~count net0 configs
      in
      QCheck2.assume (configs' != configs);
      let eng1, deltas =
        counter_deltas spf_counters (fun () -> Engine.apply_edit_exn eng0 configs')
      in
      let fresh = Simulate.run_exn configs' in
      let net1 = fresh.net in
      if deltas <> [ 1; 0 ] then
        QCheck2.Test.fail_reportf "spf_extend/spf_full deltas %s"
          (String.concat "/" (List.map string_of_int deltas));
      if not (Device.Smap.equal ( = ) (Engine.fibs eng1) fresh.fibs) then
        QCheck2.Test.fail_report "extended FIBs differ from Simulate.run";
      match Ospf.prepare_update ~prev:(Ospf.prepare net0) net1 with
      | None -> QCheck2.Test.fail_report "min-cost links fell back to prepare"
      | Some (st, _, moved) ->
          let routes = selection st net1 in
          moved <> []
          && Device.Smap.equal ( = ) routes (Ospf.compute net1)
          && Device.Smap.equal ( = ) (by_prefix routes)
               (by_prefix (Crucible.Reference.ospf_routes net1)))

(* ---------------- base FIBs: constructor and slot patches ---------------- *)

(* The base-FIB constructor on every member of every IGP domain of
   [net], against the [add_candidate] fold of the naive reference's OSPF
   routes into the others FIB, folded forward and backward, and against
   [Simulate.run_net] when no BGP runs. *)
let constructor_divergence (net : Device.network) =
  let find m tbl = Option.value ~default:[] (Device.Smap.find_opt m tbl) in
  let checks =
    List.concat_map
      (fun (d : Simulate.igp_domain) ->
        let scope = d.dom_scope in
        let st = Ospf.prepare ~scope net in
        let rip = Rip.compute ~scope net and eigrp = Eigrp.compute ~scope net in
        let reference = Crucible.Reference.ospf_routes ~scope net in
        let members =
          List.filter_map
            (fun m -> Option.map (fun r -> (m, r)) (Device.Smap.find_opt m net.routers))
            d.dom_members
        in
        let others =
          List.map
            (fun (m, r) -> (m, Simulate.others_fib net r (find m rip @ find m eigrp)))
            members
        in
        List.map2
          (fun ((m, r), (_, o)) fib ->
            let ospf = find m reference in
            let all = Simulate.local_candidates net r @ ospf @ find m rip @ find m eigrp in
            let err =
              if fib <> fold_into o ospf then Some "constructor <> fold into others"
              else if fib <> fold_into o (List.rev ospf) then Some "selection order matters"
              else if fib <> Fib.of_candidates (List.rev all) then Some "<> of_candidates"
              else None
            in
            (m, fib, err))
          (List.combine members others)
          (Simulate.base_fibs net (Some st) others))
      (Simulate.igp_domains net)
  in
  let has_bgp = Device.Smap.exists (fun _ (r : Device.router) -> r.r_bgp <> None) net.routers in
  match List.find_map (fun (m, _, err) -> Option.map (fun e -> m ^ ": " ^ e) err) checks with
  | Some msg -> Some msg
  | None ->
      (* Without BGP the final FIBs of the reference path are the base
         FIBs: [Simulate.run] builds through the same constructor. *)
      let base = List.fold_left (fun acc (m, fib, _) -> Device.Smap.add m fib acc) Device.Smap.empty checks in
      if has_bgp || Device.Smap.equal ( = ) base (Simulate.run_net net) then None
      else Some "Simulate.run_net <> the constructor"

let prop_constructor_reference =
  QCheck2.Test.make ~name:"base FIB: constructor = add_candidate fold = reference"
    ~count:30 (QCheck2.Gen.int_bound 100_000)
    (fun seed ->
      let net =
        Device.compile_exn (Netgen.Emit.emit (Crucible.Gen.spec ~params:ospf_only ~seed ()))
      in
      match constructor_divergence net with
      | None -> true
      | Some msg -> QCheck2.Test.fail_reportf "seed %d: %s" seed msg)

(* The same on catalog nets whose OSPF routers also run RIP or EIGRP:
   their others FIBs hold DV routes the selection merges with. *)
let test_constructor_mixed_igps () =
  List.iter
    (fun (name, configs) ->
      match constructor_divergence (Device.compile_exn configs) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" name msg)
    [
      ("A+rip", with_rip "A");
      ("G+rip", with_rip "G");
      ("A+eigrp", with_eigrp "A");
      ("G+eigrp", with_eigrp "G");
    ]

(* Slot patches, edit after edit, equal a cold build: fake links at the
   SFE cost first, then filter edits, their rollbacks and stub
   attachments. *)
let prop_engine_slot_patches =
  QCheck2.Test.make ~name:"engine: slot patches after random edits = cold build"
    ~count:15
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 3))
    (fun (seed, links) ->
      let configs0 = Netgen.Emit.emit (Crucible.Gen.spec ~params:ospf_only ~seed ()) in
      let rng = Netcore.Rng.create seed in
      let eng = ref (Engine.of_configs_exn configs0) in
      let configs =
        ref (Crucible.Oracle.add_links ~rng ~below:false ~count:links (Engine.network !eng) configs0)
      in
      let denies = ref [] and structurals = ref 0 in
      for step = 0 to 6 do
        if step > 0 then
          configs := random_edit ~rng ~denies ~structurals (Engine.network !eng) !configs;
        eng := Engine.apply_edit_exn !eng !configs;
        if not (Device.Smap.equal ( = ) (Engine.fibs !eng) (Simulate.run_exn !configs).fibs)
        then
          QCheck2.Test.fail_reportf "seed %d: FIBs diverge from a cold build after edit %d"
            seed step
      done;
      true)

(* A patch must cover the prefixes whose others slot changed, with the
   new others FIB. A fake host's ingress router gains a connected route
   to the host's subnet; the patch that keeps its previous others FIB
   and rebuilds only the prefixes whose SPF field changed misses that
   route, while the engine's patch equals a cold build. *)
let test_patch_needs_changed_others () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "A") in
  let net0 = Device.compile_exn configs in
  let ingress =
    fst (List.find (fun (_, (r : Device.router)) -> r.r_ospf <> None) (Device.Smap.bindings net0.routers))
  in
  let subnet =
    Netcore.Prefix.alloc_fresh
      (Netcore.Prefix.alloc_create ~avoid:(Confmask.Edits.used_prefixes configs) ())
      ~len:24
  in
  let configs1 =
    Confmask.Edits.update configs ingress (fun c ->
        let name = Confmask.Edits.fresh_iface_name c in
        let c =
          Confmask.Edits.add_interface c ~name ~addr:(Netcore.Prefix.host subnet 1) ~plen:24
            ~desc:"to-fake-host" ()
        in
        Confmask.Edits.add_igp_network c subnet)
  in
  let net1 = Device.compile_exn configs1 in
  let others net = Simulate.others_fib net (Device.Smap.find ingress net.Device.routers) [] in
  let o0 = others net0 and o1 = others net1 in
  let st0 = Ospf.prepare net0 in
  let fib0 = List.hd (Simulate.base_fibs net0 (Some st0) [ (ingress, o0) ]) in
  let cold = List.hd (Simulate.base_fibs net1 (Some (Ospf.prepare net1)) [ (ingress, o1) ]) in
  match Ospf.prepare_update ~prev:st0 net1 with
  | None -> Alcotest.fail "a stub attachment fell back to prepare"
  | Some (st1, changed, _) ->
      check Alcotest.bool "the engine's patch equals a cold build" true
        (Ospf.patch_base st1 net1 ingress ~others:o1 fib0
           (changed @ Fib.changed_prefixes o0 o1)
        = cold);
      check Alcotest.bool "a patch with the previous others FIB does not" false
        (Ospf.patch_base st1 net1 ingress ~others:o0 fib0 changed = cold)

(* Every OSPF-advertised prefix of [net] with its seeds. *)
let advertised (net : Device.network) =
  Device.Smap.fold
    (fun name (r : Device.router) acc ->
      List.fold_left
        (fun acc (i : Device.iface) ->
          if Device.ospf_enabled r i then
            (Device.ifc_prefix i, (name, i.ifc_cost)) :: acc
          else acc)
        acc r.r_ifaces)
    net.routers []
  |> List.sort_uniq compare
  |> List.fold_left
       (fun acc (p, seed) ->
         match acc with
         | (q, seeds) :: tl when Netcore.Prefix.compare p q = 0 ->
             (q, seed :: seeds) :: tl
         | _ -> (p, [ seed ]) :: acc)
       []

(* A link planted below the min cost shortens some paths. The engine
   still extends the state, but every prefix the link relaxes — and only
   those, besides the link's own subnet — gets a fresh Dijkstra. *)
let test_engine_planted_relaxing_link () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "D") in
  let eng0 = Engine.of_configs_exn configs in
  let net = Engine.network eng0 in
  let dist u = Crucible.Reference.min_cost net u in
  (* The first non-adjacent pair, in name order, at least 3 apart both
     ways; the link costs one less than the min cost in each direction. *)
  let u, v, cost_uv, cost_vu =
    let routers = List.map fst (Device.Smap.bindings net.routers) in
    List.concat_map (fun u -> List.map (fun v -> (u, v)) routers) routers
    |> List.find_map (fun (u, v) ->
           let d x y = Option.value ~default:0 (Device.Smap.find_opt y (dist x)) in
           if
             String.compare u v < 0
             && Device.find_adj net u v = None
             && d u v >= 3 && d v u >= 3
           then Some (u, v, d u v - 1, d v u - 1)
           else None)
    |> Option.get
  in
  let configs' = Crucible.Oracle.add_link configs ~u ~v ~cost_uv ~cost_vu () in
  (* Reference distances toward a prefix: the least path cost to one of
     its advertisers plus that advertiser's stub cost. *)
  let toward x seeds =
    let d = dist x in
    List.fold_left
      (fun acc (s, c) ->
        match Device.Smap.find_opt s d with
        | Some ds -> min acc (ds + c)
        | None -> acc)
      max_int seeds
  in
  let relaxed =
    List.filter
      (fun (_, seeds) ->
        let du = toward u seeds and dv = toward v seeds in
        (dv < max_int && cost_uv + dv < du) || (du < max_int && cost_vu + du < dv))
      (advertised net)
  in
  let eng1, deltas =
    counter_deltas
      (spf_counters @ [ "ospf.dijkstras" ])
      (fun () -> Engine.apply_edit_exn eng0 configs')
  in
  let fresh = Simulate.run_exn configs' in
  let _, cold = counter_deltas [ "ospf.dijkstras" ] (fun () -> Ospf.prepare fresh.net) in
  check Alcotest.bool "the planted link relaxes some prefix" true (relaxed <> []);
  (match deltas with
  | [ extend; full; dijkstras ] ->
      check Alcotest.(pair int int) "extended, not rebuilt" (1, 0) (extend, full);
      (* One Dijkstra per distinct advertiser of the recomputed prefixes
         (the relaxed ones and the link's /30, advertised by [u] and
         [v]), or one per prefix when that is fewer. *)
      let advertisers =
        List.sort_uniq String.compare
          (u :: v :: List.concat_map (fun (_, seeds) -> List.map fst seeds) relaxed)
      in
      check Alcotest.int "Dijkstras for the relaxed prefixes and the link's"
        (min (List.length advertisers) (List.length relaxed + 1))
        dijkstras;
      check Alcotest.bool "fewer Dijkstras than a cold prepare" true
        (dijkstras < List.hd cold)
  | _ -> assert false);
  check Alcotest.bool "FIBs equal Simulate.run" true
    (Device.Smap.equal ( = ) (Engine.fibs eng1) fresh.fibs)

(* Edits the extension does not cover take the full SPF: a removed
   adjacency, a re-costed one, and a new router. *)
let test_engine_spf_fallbacks () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "D") in
  let eng0 = Engine.of_configs_exn configs in
  let net = Engine.network eng0 in
  let r, (a : Device.adj) =
    let r, adjs = List.find (fun (_, l) -> l <> []) (Device.Smap.bindings net.adjs) in
    (r, List.hd adjs)
  in
  let iface = a.a_out_iface.ifc_name in
  let on_iface f =
    Confmask.Edits.update configs r (fun c ->
        {
          c with
          interfaces =
            List.filter_map
              (fun (i : Configlang.Ast.interface) ->
                if String.equal i.if_name iface then f i else Some i)
              c.interfaces;
        })
  in
  let removed = on_iface (fun _ -> None) in
  let recosted =
    on_iface (fun i -> Some { i with if_cost = Some (a.a_out_iface.ifc_cost + 5) })
  in
  let grown =
    match
      Confmask.Node_anon.add ~rng:(Netcore.Rng.create 1) ~count:1
        ~orig:(Engine.snapshot eng0) configs
    with
    | Ok n -> n.configs
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (name, configs') ->
      let eng1, deltas =
        counter_deltas spf_counters (fun () -> Engine.apply_edit_exn eng0 configs')
      in
      check Alcotest.(list int) (name ^ ": spf_extend/spf_full") [ 0; 1 ] deltas;
      check Alcotest.bool (name ^ ": FIBs equal Simulate.run") true
        (Device.Smap.equal ( = ) (Engine.fibs eng1) (Simulate.run_exn configs').fibs))
    [ ("removed adjacency", removed); ("re-costed adjacency", recosted);
      ("new router", grown) ]

(* A whole state restored from the disk cache extends like a computed
   one: the result equals the cold build of the extended network. *)
let test_engine_restored_state_extends () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "D") in
  let net = (Simulate.run_exn configs).net in
  let configs' =
    Crucible.Oracle.add_links ~rng:(Netcore.Rng.create 3) ~below:false ~count:3
      net configs
  in
  let cold = Engine.fibs (Engine.of_configs_exn configs') in
  let dir = temp_cache_dir () in
  ignore (Engine.of_configs_exn ~cache:(Engine.open_cache dir) configs);
  let restored, hits =
    counter_deltas [ "engine.state_disk" ] (fun () ->
        Engine.of_configs_exn ~cache:(Engine.open_cache dir) configs)
  in
  check Alcotest.(list int) "restored from disk" [ 1 ] hits;
  let eng, deltas =
    counter_deltas spf_counters (fun () -> Engine.apply_edit_exn restored configs')
  in
  check Alcotest.(list int) "spf_extend/spf_full" [ 1; 0 ] deltas;
  check Alcotest.bool "equals the cold build" true
    (Device.Smap.equal ( = ) (Engine.fibs eng) cold)

(* The persistent cache holds whole from-scratch states and BGP
   fixpoints only: a cold build plus a walk of edits into an empty
   directory writes one state entry and one entry per BGP fixpoint it
   computed — on OSPF-only net D, the state entry alone. *)
let test_engine_disk_cache_entry_kinds () =
  List.iter
    (fun (net, seed) ->
      let states = record_walk ~seed ~steps:4 (Netgen.Nets.find net) in
      let dir = temp_cache_dir () in
      let _, deltas =
        counter_deltas [ "diskcache.write"; "engine.bgp_compute" ] (fun () ->
            replay ~cache:(Engine.open_cache dir) states)
      in
      match deltas with
      | [ writes; bgp ] ->
          if net = "A" then check Alcotest.bool "A computes BGP" true (bgp > 0);
          check Alcotest.int (net ^ ": entries written") (1 + bgp) writes
      | _ -> assert false)
    [ ("A", 3); ("D", 3) ]

(* Stub subnets on one router add no adjacency, so every router's row
   stays what it was and the engine keeps the whole SPF state. Row order
   must not follow hash order over the subnet table, which 100 more
   subnets resize: a reordered row makes its router redo its selection. *)
let test_engine_stub_subnets_keep_rows () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "D") in
  let eng0 = Engine.of_configs_exn configs in
  let alloc =
    Netcore.Prefix.alloc_create ~avoid:(Confmask.Edits.used_prefixes configs) ()
  in
  let add_stub c =
    let p = Netcore.Prefix.alloc_fresh alloc ~len:24 in
    Confmask.Edits.add_interface c ~name:(Confmask.Edits.fresh_iface_name c)
      ~addr:(Netcore.Prefix.host p 1) ~plen:24 ()
  in
  let configs' =
    Confmask.Edits.update configs "bics-r00" (fun c ->
        List.fold_left (fun c _ -> add_stub c) c (List.init 100 Fun.id))
  in
  let eng1, deltas =
    counter_deltas
      [ "engine.spf_reuse"; "engine.spf_extend"; "engine.spf_full" ]
      (fun () -> Engine.apply_edit_exn eng0 configs')
  in
  let rows eng = (Engine.network eng).adjs in
  let moved =
    Device.Smap.merge
      (fun _ a b -> if a = b then None else Some ())
      (rows eng0) (rows eng1)
  in
  check Alcotest.(list string) "no router's adjacency row changed" []
    (List.map fst (Device.Smap.bindings moved));
  (match deltas with
  | [ reuse; extend; full ] ->
      check Alcotest.bool "the SPF state is reused" true (reuse > 0);
      check Alcotest.(pair int int) "neither extended nor rebuilt" (0, 0)
        (extend, full)
  | _ -> assert false);
  check Alcotest.bool "FIBs equal Simulate.run" true
    (Device.Smap.equal ( = ) (Engine.fibs eng1) (Simulate.run_exn configs').fibs)

(* [Device.compile] fixes every order of the model itself: rows are in
   (peer, out-interface name) order, and a shuffled config list gives
   the same rows, attachments, table answers and FIBs. *)
let prop_compile_order_free =
  QCheck2.Test.make ~name:"compile: config list order changes nothing" ~count:50
    QCheck2.Gen.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (seed, shuffle_seed) ->
      let configs = Netgen.Emit.emit (Crucible.Gen.spec ~seed ()) in
      let shuffled = Netcore.Rng.shuffle (Netcore.Rng.create shuffle_seed) configs in
      let a = Device.compile_exn configs and b = Device.compile_exn shuffled in
      let same_tables =
        Device.Smap.for_all
          (fun name (r : Device.router) ->
            List.for_all
              (fun (i : Device.iface) ->
                Device.find_iface a name i.ifc_name = Device.find_iface b name i.ifc_name)
              r.r_ifaces
            && List.for_all
                 (fun (adj : Device.adj) ->
                   let o = adj.a_out_iface.ifc_name in
                   Device.arrival_iface a name o adj.a_to
                   = Device.arrival_iface b name o adj.a_to)
                 (Device.Smap.find name a.adjs))
          a.routers
      in
      let key (adj : Device.adj) = (adj.a_to, adj.a_out_iface.ifc_name) in
      Device.Smap.for_all
        (fun _ row -> List.map key row = List.sort compare (List.map key row))
        a.adjs
      && Device.Smap.equal ( = ) a.adjs b.adjs
      && Device.Smap.equal ( = ) a.attachments b.attachments
      && same_tables
      && Device.Smap.equal ( = ) (Simulate.run_exn configs).fibs
           (Simulate.run_exn shuffled).fibs)

(* ---------------- per-snapshot data-plane memo ---------------- *)

let fec_classes = Netcore.Telemetry.counter "fec.classes"
let fec_traced = Netcore.Telemetry.counter "fec.traced"

(* [f ()] and how far it moved [fec.classes] and [fec.traced]: one
   extraction adds its class count and its traced pairs, so a memo hit
   adds nothing. *)
let fec_ticked f =
  Netcore.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Netcore.Telemetry.set_enabled false) @@ fun () ->
  let value () = Netcore.Telemetry.(value fec_classes, value fec_traced) in
  let c0, t0 = value () in
  let x = f () in
  let c1, t1 = value () in
  (x, (c1 - c0, t1 - t0))

let classes_ticked f =
  let x, (classes, _) = fec_ticked f in
  (x, classes)

let net_b () = Simulate.run_exn (Netgen.Nets.configs (Netgen.Nets.find "B"))

let test_memo_shared () =
  let s = net_b () in
  let (dp1, dp2), ticks =
    classes_ticked (fun () ->
        let dp1 = Simulate.dataplane s in
        (dp1, Simulate.dataplane s))
  in
  check Alcotest.bool "second call returns the same table" true (dp1 == dp2);
  let _, once = classes_ticked (fun () -> Simulate.dataplane (net_b ())) in
  check Alcotest.bool "an extraction ticks fec.classes" true (once > 0);
  check Alcotest.int "two calls extract once" once ticks

let test_memo_engine_snapshots () =
  let eng = Engine.of_configs_exn (Netgen.Nets.configs (Netgen.Nets.find "B")) in
  let a = Simulate.dataplane (Engine.snapshot eng) in
  let b = Simulate.dataplane (Engine.snapshot eng) in
  check Alcotest.bool "each snapshot has its own plane" true (a != b);
  check Alcotest.bool "with equal traces" true
    (Dataplane.fold (fun k t acc -> (k, t) :: acc) a []
    = Dataplane.fold (fun k t acc -> (k, t) :: acc) b [])

let test_memo_two_domains () =
  let pool = Netcore.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Netcore.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun _ ->
      let s = net_b () in
      match Netcore.Pool.map pool (fun s -> Simulate.dataplane s) [ s; s ] with
      | [ a; b ] ->
          check Alcotest.bool "both domains get the published plane" true (a == b);
          check Alcotest.bool "which stays the memo" true (Simulate.dataplane s == a)
      | _ -> Alcotest.fail "two results expected")
    [ 1; 2; 3; 4 ]

(* A served job's record (equivalence, verification, red team) reuses
   the planes of the report's two snapshots: one extraction each, and
   the equivalence check traces no pair of its own. *)
let test_memo_batch_job () =
  let params = { Confmask.Workflow.default_params with k_r = 6; k_h = 2 } in
  let r = Confmask.Workflow.run_exn ~params (Netgen.Nets.configs (Netgen.Nets.find "D")) in
  let extract_both () =
    ignore (Simulate.dataplane r.orig_snapshot);
    ignore (Simulate.dataplane r.anon_snapshot)
  in
  let _, (once, traced_once) = fec_ticked extract_both in
  let record, (ticks, traced) =
    fec_ticked (fun () ->
        Confmask.Batch.execute ~out:(temp_cache_dir ()) ~cache:None
          ~format:Configlang.Vendor.Cisco
          {
            Confmask.Batch.job_id = "D";
            job_source = Confmask.Batch.Catalog "D";
            job_params = params;
          })
  in
  check Alcotest.(option string) "job ok" (Some "ok")
    (Option.bind (Netcore.Json.member "status" record) Netcore.Json.str);
  check Alcotest.int "each snapshot extracted once" once ticks;
  check Alcotest.int "pairs traced by the two extractions only" traced_once traced

let memo_suite =
  [
    Alcotest.test_case "two calls share one plane" `Quick test_memo_shared;
    Alcotest.test_case "engine snapshots do not share" `Quick test_memo_engine_snapshots;
    Alcotest.test_case "two domains force one snapshot" `Quick test_memo_two_domains;
    Alcotest.test_case "batch job extracts each snapshot once" `Quick test_memo_batch_job;
  ]

let engine_suite =
  List.concat_map
    (fun (entry : Netgen.Nets.entry) ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "incremental = scratch (%s, seed %d)" entry.id seed)
            `Quick
            (engine_equiv_case ~seed entry))
        [ 7; 21 ])
    (Netgen.Nets.small ())
  @ List.map
      (fun (id, configs) ->
        Alcotest.test_case
          (Printf.sprintf "delta = changed FIBs under noise and rollback (%s)" id)
          `Quick
          (engine_delta_case ~seed:3 ~id configs))
      (List.map
         (fun (entry : Netgen.Nets.entry) -> (entry.id, Netgen.Nets.configs entry))
         (Netgen.Nets.small ())
      @ List.map (fun id -> (id ^ "+rip", with_rip id)) [ "A"; "G" ]
      @ [ ("G+eigrp", with_eigrp "G") ])

let () =
  Alcotest.run "routing"
    [
      ( "ospf",
        [
          Alcotest.test_case "original example paths" `Quick test_ospf_original_paths;
          Alcotest.test_case "fake edge default cost migrates" `Quick
            test_fake_edge_default_cost_migrates;
          Alcotest.test_case "fake edge large cost preserves" `Quick
            test_fake_edge_large_cost_preserves;
          Alcotest.test_case "fake edge matched cost splits" `Quick
            test_fake_edge_matched_cost_multipath;
          Alcotest.test_case "filter restores equivalence" `Quick
            test_filter_restores_equivalence;
          Alcotest.test_case "min_cost" `Quick test_min_cost;
          Alcotest.test_case "min_cost = reference per IGP domain on nets A-H" `Quick
            test_min_cost_reference;
          Alcotest.test_case "parallel links" `Quick test_parallel_links;
          Alcotest.test_case "asymmetric costs" `Quick test_asymmetric_costs;
        ] );
      ( "model",
        [
          Alcotest.test_case "topology graphs" `Quick test_topology_graphs;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "unreachable destination drops" `Quick test_no_route_dropped;
        ] );
      ( "rip",
        [
          Alcotest.test_case "ecmp" `Quick test_rip_ecmp;
          Alcotest.test_case "filter" `Quick test_rip_filter;
        ] );
      ( "bgp",
        [
          Alcotest.test_case "shortest AS path" `Quick test_bgp_shortest_as_path;
          Alcotest.test_case "inbound filter reroutes" `Quick test_bgp_filter_reroutes;
          Alcotest.test_case "session establishment" `Quick test_bgp_sessions;
          Alcotest.test_case "local preference" `Quick test_bgp_local_preference;
          Alcotest.test_case "route-map deny" `Quick test_bgp_route_map_deny;
        ] );
      ( "fib",
        [
          Alcotest.test_case "longest prefix match" `Quick test_fib_lpm;
          Alcotest.test_case "admin distance and ecmp" `Quick test_fib_admin_distance;
          Alcotest.test_case "one word per slot on nets D and H" `Quick test_fib_shape;
        ] );
      ( "static",
        [
          Alcotest.test_case "overrides IGP by admin distance" `Quick
            test_static_route_overrides_igp;
          Alcotest.test_case "wrong static detours and loops" `Quick
            test_static_route_detour;
          Alcotest.test_case "unresolvable next hop ignored" `Quick
            test_static_requires_connected_nexthop;
        ] );
      ( "eigrp",
        [
          Alcotest.test_case "delay-based metric" `Quick test_eigrp_delay_metric;
          Alcotest.test_case "filter reroutes" `Quick test_eigrp_filter;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "loop detection" `Quick test_loop_detection;
          Alcotest.test_case "path cap truncation" `Quick test_truncation;
          Alcotest.test_case "extract ~hosts = full plane on nets A-H" `Quick
            test_extract_hosts_catalog;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map matches List.map" `Quick test_pool_map_matches;
          Alcotest.test_case "jobs=1 is sequential" `Quick test_pool_sequential;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "shared pool init race" `Quick test_pool_default_race;
        ] );
      ( "engine",
        engine_suite
        @ [
            Alcotest.test_case "no-op edit skips BGP" `Quick test_engine_bgp_skip;
            Alcotest.test_case "disk cache: warm equals cold" `Quick
              test_engine_disk_cache_warm_equals_cold;
            Alcotest.test_case "disk cache: corruption degrades to cold" `Quick
              test_engine_disk_cache_corruption;
            Alcotest.test_case "planted relaxing link recomputes only what it relaxes"
              `Quick test_engine_planted_relaxing_link;
            Alcotest.test_case "removed, re-costed links and new routers take the full SPF"
              `Quick test_engine_spf_fallbacks;
            Alcotest.test_case "restored state extends like the cold build" `Quick
              test_engine_restored_state_extends;
            Alcotest.test_case "disk cache: one state entry plus one per BGP fixpoint"
              `Quick test_engine_disk_cache_entry_kinds;
            Alcotest.test_case "stub subnets keep every adjacency row" `Quick
              test_engine_stub_subnets_keep_rows;
            Alcotest.test_case "base FIB constructor on mixed-IGP nets A and G" `Quick
              test_constructor_mixed_igps;
            Alcotest.test_case "a patch covers changed others slots" `Quick
              test_patch_needs_changed_others;
            Alcotest.test_case "a deny binds to every IGP of the router" `Quick
              test_deny_binds_every_igp;
          ] );
      ("memo", memo_suite);
      ( "properties",
        qsuite
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_engine_disk_cache;
              prop_engine_extends_min_cost_links;
              prop_constructor_reference;
              prop_engine_slot_patches;
              prop_compile_order_free;
            ] );
    ]
