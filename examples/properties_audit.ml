(* Auditing routing utility properties across anonymization (Appendix B).

   Run with:  dune exec examples/properties_audit.exe

   A network with a deliberate ACL black hole and an ECMP inconsistency is
   anonymized; the audit mines all six Appendix-B property families —
   reachability, path lengths, black holes, multipath consistency,
   waypoints, routing loops — from both data planes and shows that the
   anonymized network satisfies exactly the same properties (Theorem B.7
   made operational). This is what makes the shared configurations safe to
   use for verification-style downstream tasks. *)

module Ast = Configlang.Ast

let config lines = Configlang.Parser.parse_exn (String.concat "\n" lines)

let host name addr gw =
  config
    [
      "hostname " ^ name;
      "interface eth0";
      Printf.sprintf " ip address %s 255.255.255.0" addr;
      "ip default-gateway " ^ gw;
    ]

(* Diamond a1 -> {a2, a4} -> a3 with a security ACL on a2: traffic from
   the guest subnet (hg) to the finance subnet (hf) is dropped on the a2
   branch only — a deliberate multipath inconsistency — and fully dropped
   from hg to the management host hm. *)
let network () =
  let router name addrs extras =
    config
      ([ "hostname " ^ name ]
      @ List.concat
          (List.mapi
             (fun i (a, extra_lines) ->
               [
                 Printf.sprintf "interface Eth%d" i;
                 Printf.sprintf " ip address %s 255.255.255.0" a;
               ]
               @ extra_lines @ [ "!" ])
             addrs)
      @ [ "router ospf 1"; " network 10.0.0.0 0.255.255.255 area 0"; "!" ]
      @ extras)
  in
  [
    router "a1"
      [ ("10.0.12.1", []); ("10.0.14.1", []); ("10.50.1.1", []) ]
      [];
    router "a2"
      [ ("10.0.12.2", [ " ip access-group SEC in" ]); ("10.0.23.2", []) ]
      [
        "ip access-list extended SEC";
        " deny ip 10.50.1.0 0.0.0.255 10.50.3.0 0.0.0.255";
        " deny ip 10.50.1.0 0.0.0.255 10.50.9.0 0.0.0.255";
        " permit ip any any";
      ];
    router "a3"
      [ ("10.0.23.3", []); ("10.0.34.3", []); ("10.0.35.3", []); ("10.50.3.1", []) ]
      [];
    router "a4"
      [ ("10.0.14.4", []); ("10.0.34.4", []); ("10.50.9.1", [ " ip access-group MGMT out" ]) ]
      [
        "ip access-list extended MGMT";
        " deny ip 10.50.1.0 0.0.0.255 any";
        " permit ip any any";
      ];
    (* A stub branch office: makes the degree sequence irregular, so the
       topology anonymization has real work to do. *)
    router "a5" [ ("10.0.35.5", []); ("10.50.5.1", []) ] [];
    host "hx" "10.50.5.10" "10.50.5.1";
    host "hg" "10.50.1.10" "10.50.1.1";
    host "hf" "10.50.3.10" "10.50.3.1";
    host "hm" "10.50.9.10" "10.50.9.1";
  ]

let print_props label props =
  Printf.printf "\n%s (%d properties)\n" label (List.length props);
  List.iter (fun p -> Printf.printf "  %s\n" (Spec.Query.to_string p)) props

let () =
  let configs = network () in
  let params = { Confmask.Workflow.default_params with k_r = 4; k_h = 2 } in
  let r = Confmask.Workflow.run_exn ~params configs in
  let hosts = Confmask.Workflow.real_hosts r in
  let props snap = Spec.mine_properties ~hosts (Routing.Simulate.dataplane snap) in
  let orig = props r.orig_snapshot in
  print_props "Original network" orig;
  let diff = Spec.compare_specs ~orig ~anon:(props r.anon_snapshot) in
  Printf.printf "\nAfter anonymization (%d fake links, %d fake hosts):\n"
    (List.length r.fake_edges) (List.length r.fake_hosts);
  Printf.printf "  kept:   %d properties\n" (List.length diff.kept);
  Printf.printf "  lost:   %d\n" (List.length diff.lost);
  Printf.printf "  gained: %d\n" (List.length diff.introduced);
  List.iter (fun p -> Printf.printf "  LOST %s\n" (Spec.Query.to_string p)) diff.lost;
  List.iter
    (fun p -> Printf.printf "  GAINED %s\n" (Spec.Query.to_string p))
    diff.introduced;
  Printf.printf "\nTheorem B.7 holds on this run: %b\n"
    (diff.lost = [] && diff.introduced = []);
  (* The ACL stanzas survive verbatim in the shared configs. *)
  let a2 = List.find (fun (c : Ast.config) -> c.hostname = "a2") r.anon_configs in
  Printf.printf "security ACL still in the shared a2.cfg: %b\n"
    (Ast.find_acl a2 "SEC" <> None)
