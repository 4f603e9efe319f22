(* The collaborative-troubleshooting case study of ConfMask §2.3.

   Run with:  dune exec examples/troubleshooting.exe

   A FatTree-04 network suffers high delay between h_A (pod 3) and h_B
   (pod 1). The root cause is a QoS misconfiguration on a core router:
   traffic from agg3-1 is remarked to *low* priority and then starves in
   agg1-1's weighted-round-robin queue. An engineer can only find this if
   the shared (anonymized) configurations still show the real forwarding
   path h_A -> edge3-1 -> agg3-1 -> core -> agg1-1 -> edge1-0 -> h_B and
   still contain the QoS stanzas.

   ConfMask preserves both; a NetHide-style obfuscation reroutes the
   forwarding path and hides the root cause. *)

module Ast = Configlang.Ast

let ha = "h-edge3-1-0"
let hb = "h-edge1-0-0"

(* QoS stanzas, carried verbatim (CiscoLite does not interpret them, just
   like the real ConfMask leaves unknown lines untouched). *)
let buggy_core_qos =
  [
    "traffic classifier is_mgmt_traffic";
    "traffic behavior remark_mgmt_dscp";
    "traffic policy mark_agg31_low_priority"; (* BUG: should be high *)
  ]

let congested_agg_qos =
  [ "qos schedule-profile default"; "qos wrr 1 to 7"; "qos queue 2 wrr weight 10" ]

let inject_qos (c : Ast.config) =
  match c.hostname with
  | "core0" -> { c with extra = c.extra @ buggy_core_qos }
  | "agg1-1" -> { c with extra = c.extra @ congested_agg_qos }
  | _ -> c

let waypoints paths = List.concat_map Spec.Query.interior paths |> List.sort_uniq String.compare

let () =
  let configs = List.map inject_qos (Netgen.Nets.configs (Netgen.Nets.find "G")) in
  let orig = Routing.Simulate.run_exn configs in
  let dp0 = Routing.Simulate.dataplane orig in
  let paths0 = Routing.Dataplane.paths dp0 ~src:ha ~dst:hb in

  Printf.printf "=== Original forwarding, %s -> %s ===\n" ha hb;
  List.iter (fun p -> Printf.printf "  %s\n" (String.concat " " p)) paths0;
  Printf.printf "routers on the trace: %s\n"
    (String.concat ", " (waypoints paths0));

  (* --- ConfMask --- *)
  let params = { Confmask.Workflow.default_params with k_r = 10; k_h = 2 } in
  let r = Confmask.Workflow.run_exn ~params configs in
  let dp1 = Routing.Simulate.dataplane r.anon_snapshot in
  let paths1 = Routing.Dataplane.paths dp1 ~src:ha ~dst:hb in
  Printf.printf "\n=== ConfMask-anonymized forwarding (k_r = 10, k_h = 2) ===\n";
  List.iter (fun p -> Printf.printf "  %s\n" (String.concat " " p)) paths1;
  Printf.printf "paths preserved exactly: %b\n"
    (List.sort compare paths0 = List.sort compare paths1);
  let anon_core =
    List.find (fun (c : Ast.config) -> c.hostname = "core0") r.anon_configs
  in
  Printf.printf "buggy QoS stanza still visible on core0: %b\n"
    (List.mem "traffic policy mark_agg31_low_priority" anon_core.extra);
  Printf.printf
    "=> the engineer sees the real path through core0 and the bad policy.\n";

  (* --- NetHide baseline --- *)
  let g = Routing.Device.router_graph orig.net in
  let edge_pairs =
    (* flows between all edge routers, the granularity NetHide optimizes *)
    let edges =
      List.filter (fun n -> String.length n >= 4 && String.sub n 0 4 = "edge")
        (Netcore.Graph.nodes g)
    in
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) edges)
      edges
  in
  let rng = Netcore.Rng.create 7 in
  let params = { Nethide.default_params with candidates = 256 } in
  let g' = Nethide.obfuscate ~params ~rng g ~flows:edge_pairs in
  Printf.printf "\n=== NetHide-style obfuscation ===\n";
  Printf.printf "links changed: %d added / %d of the original kept\n"
    (List.length
       (List.filter
          (fun (u, v) -> not (Netcore.Graph.mem_edge u v g))
          (Netcore.Graph.edges g')))
    (List.length
       (List.filter
          (fun (u, v) -> Netcore.Graph.mem_edge u v g')
          (Netcore.Graph.edges g)));
  (match Nethide.forwarding_path g' "edge3-1" "edge1-0" with
  | Some p ->
      Printf.printf "published trace edge3-1 -> edge1-0: %s\n" (String.concat " " p);
      let real = waypoints paths0 in
      let missing = List.filter (fun w -> not (List.mem w p)) real in
      Printf.printf "real-path routers missing from the published trace: %s\n"
        (if missing = [] then "(none)" else String.concat ", " missing);
      Printf.printf
        "=> the congested queue and the mis-marking router are off the trace;\n\
         the engineer would chase fake interfaces instead (cf. §2.3).\n"
  | None -> Printf.printf "published topology even disconnects the pair!\n")
