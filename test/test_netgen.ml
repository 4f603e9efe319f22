(* Generators must produce networks that match Table 2's shape and are
   fully routable: every host pair has at least one forwarding path and
   no walk drops or loops. *)

open Netgen

let check = Alcotest.check

let counts spec =
  let g = Netspec.router_graph spec in
  ( List.length spec.Netspec.routers,
    List.length spec.Netspec.hosts,
    Netcore.Graph.num_edges g + List.length spec.Netspec.hosts )

let test_table2_shapes () =
  let expected =
    [ ("A", (10, 8, 26)); ("B", (13, 8, 25)); ("C", (11, 9, 22));
      ("D", (49, 98, 162)); ("E", (86, 68, 169)); ("F", (161, 58, 378));
      ("G", (20, 16, 48)); ("H", (72, 64, 320)) ]
  in
  List.iter
    (fun (e : Nets.entry) ->
      let r, h, edges = counts e.spec in
      let er, eh, ee = List.assoc e.id expected in
      check Alcotest.(triple int int int)
        (Printf.sprintf "net %s (R, H, E)" e.id)
        (er, eh, ee) (r, h, edges))
    (Nets.all ())

let test_specs_connected () =
  List.iter
    (fun (e : Nets.entry) ->
      check Alcotest.bool
        (Printf.sprintf "net %s connected" e.id)
        true
        (Netcore.Gmetrics.connected (Netspec.router_graph e.spec)))
    (Nets.all ())

let full_reachability ?(expect_hosts = None) configs name =
  let snap = Routing.Simulate.run_exn configs in
  let dp = Routing.Simulate.dataplane snap in
  let hosts = List.map fst (Routing.Device.Smap.bindings snap.net.hosts) in
  (match expect_hosts with
  | Some n -> check Alcotest.int (name ^ " host count") n (List.length hosts)
  | None -> ());
  let bad = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> d then begin
            let t = Option.get (Routing.Dataplane.trace dp ~src:s ~dst:d) in
            if t.Routing.Dataplane.delivered = [] || t.looped <> [] then
              bad := (s, d) :: !bad
          end)
        hosts)
    hosts;
  check
    Alcotest.(list (pair string string))
    (name ^ " all pairs routable") [] !bad

let test_small_nets_routable () =
  List.iter
    (fun (e : Nets.entry) ->
      full_reachability (Nets.configs e) (Printf.sprintf "net %s" e.id))
    (Nets.small ())

let test_wan_routable () =
  full_reachability (Nets.configs (Nets.find "D")) "net D (Bics)"

let test_fattree08_routable () =
  full_reachability (Nets.configs (Nets.find "H")) "net H (FatTree08)"

let test_riplab_routable () =
  full_reachability (Emit.emit (Smallnets.rip_lab ())) "rip lab"

let test_fattree_ecmp () =
  (* Cross-pod pairs in a fat tree must be load-balanced over several
     equal-cost paths. *)
  let snap = Routing.Simulate.run_exn (Nets.configs (Nets.find "G")) in
  let dp = Routing.Simulate.dataplane snap in
  let paths =
    Routing.Dataplane.paths dp ~src:"h-edge0-0-0" ~dst:"h-edge1-0-0"
  in
  check Alcotest.bool "cross-pod ECMP" true (List.length paths >= 4)

let test_emit_deterministic () =
  let e = Nets.find "D" in
  let a = List.map Configlang.Printer.to_string (Nets.configs e) in
  let b = List.map Configlang.Printer.to_string (Nets.configs (Nets.find "D")) in
  check Alcotest.bool "deterministic emission" true (a = b)

let test_emit_parses_back () =
  List.iter
    (fun (e : Nets.entry) ->
      List.iter
        (fun c ->
          let text = Configlang.Printer.to_string c in
          let c' = Configlang.Parser.parse_exn text in
          if c <> c' then
            Alcotest.failf "net %s: %s does not round-trip" e.id
              c.Configlang.Ast.hostname)
        (Nets.configs e))
    (Nets.small ())

let test_bgp_sessions_established () =
  (* Every inter-AS link must carry a bidirectional eBGP session. *)
  List.iter
    (fun (e : Nets.entry) ->
      if Netspec.is_bgp e.spec then begin
        let snap = Routing.Simulate.run_exn (Nets.configs e) in
        let sessions = Routing.Bgp.sessions snap.net in
        let inter_links =
          List.filter
            (fun (u, v, _) -> Netspec.as_of e.spec u <> Netspec.as_of e.spec v)
            e.spec.Netspec.links
        in
        let ebgp = List.filter (fun s -> s.Routing.Bgp.s_ebgp) sessions in
        check Alcotest.int
          (Printf.sprintf "net %s eBGP sessions" e.id)
          (2 * List.length inter_links)
          (List.length ebgp)
      end)
    (Nets.small ())

let () =
  Alcotest.run "netgen"
    [
      ( "table2",
        [
          Alcotest.test_case "shapes match Table 2" `Quick test_table2_shapes;
          Alcotest.test_case "topologies connected" `Quick test_specs_connected;
        ] );
      ( "routability",
        [
          Alcotest.test_case "small nets" `Quick test_small_nets_routable;
          Alcotest.test_case "wan (Bics)" `Slow test_wan_routable;
          Alcotest.test_case "fattree08" `Slow test_fattree08_routable;
          Alcotest.test_case "rip lab" `Quick test_riplab_routable;
          Alcotest.test_case "fattree ECMP" `Quick test_fattree_ecmp;
        ] );
      ( "emit",
        [
          Alcotest.test_case "deterministic" `Quick test_emit_deterministic;
          Alcotest.test_case "round-trips" `Quick test_emit_parses_back;
          Alcotest.test_case "bgp sessions" `Quick test_bgp_sessions_established;
        ] );
    ]
