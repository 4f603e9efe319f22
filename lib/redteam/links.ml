open Netcore
module Ast = Configlang.Ast
module Smap = Routing.Device.Smap

let canonical = Attack.canonical_edge

(* Router links are marked in an n x n matrix over the interned router
   names as the walk goes; a delivered path is [h_s; r_1; ...; r_n; h_d],
   so only its router interior can cross a router link. A member pair's
   paths are its class pair's representative paths with the endpoints
   renamed, so walking the representatives marks every link. *)
let no_traffic_links (snap : Routing.Simulate.snapshot) =
  let g = Routing.Device.router_graph snap.net in
  let ids = Interner.create ~capacity:(Graph.num_nodes g) () in
  List.iter (fun r -> ignore (Interner.intern ids r)) (Graph.nodes g);
  let n = Interner.length ids in
  let used = Bytes.make (n * n) '\000' in
  let cell i j = (min i j * n) + max i j in
  let rec walk prev = function
    | r :: (_ :: _ as rest) ->
        let i = Option.value ~default:(-1) (Interner.find ids r) in
        if prev >= 0 && i >= 0 then Bytes.set used (cell prev i) '\001';
        walk i rest
    | [ _ ] | [] -> ()
  in
  List.iter
    (fun (t : Routing.Dataplane.trace) ->
      List.iter (function _ :: hops -> walk (-1) hops | [] -> ()) t.delivered)
    (Routing.Dataplane.class_traces (Routing.Simulate.dataplane snap));
  List.filter
    (fun (u, v) ->
      Bytes.get used (cell (Interner.find_exn ids u) (Interner.find_exn ids v))
      = '\000')
    (Graph.edges g)

(* Deny sets per attachment point, as printable prefix strings so sets can
   be compared across routers. *)
let deny_sets (c : Ast.config) =
  let set_of name =
    match Ast.find_prefix_list c name with
    | None -> []
    | Some pl ->
        List.filter_map
          (fun (r : Ast.prefix_rule) ->
            if r.action = Ast.Deny then Some (Prefix.to_string r.rule_prefix)
            else None)
          pl.pl_rules
        |> List.sort String.compare
  in
  let igp =
    (match c.ospf with Some o -> o.ospf_distribute_in | None -> [])
    @ (match c.rip with Some r -> r.rip_distribute_in | None -> [])
  in
  List.map (fun (d : Ast.distribute) -> (`Iface d.dl_iface, set_of d.dl_list)) igp
  @
  match c.bgp with
  | None -> []
  | Some b ->
      List.filter_map
        (fun (n : Ast.neighbor) ->
          Option.map
            (fun name -> (`Neighbor n.nb_addr, set_of name))
            n.nb_distribute_in)
        b.bgp_neighbors

(* Resolve an attachment point back to the router-router link it guards. *)
let link_of_attachment (snap : Routing.Simulate.snapshot) router = function
  | `Iface iface_name -> (
      match Smap.find_opt router snap.net.adjs with
      | None -> None
      | Some adjs ->
          List.find_opt
            (fun (a : Routing.Device.adj) ->
              String.equal a.a_out_iface.ifc_name iface_name)
            adjs
          |> Option.map (fun (a : Routing.Device.adj) -> canonical (router, a.a_to)))
  | `Neighbor addr ->
      Option.map
        (fun owner -> canonical (router, owner))
        (Routing.Device.owner_of_addr snap.net addr)

let filter_links ?(min_prefixes = 3) ?(min_routers = 2)
    (snap : Routing.Simulate.snapshot) configs =
  let attachments =
    List.concat_map
      (fun (c : Ast.config) ->
        List.filter_map
          (fun (attach, set) ->
            if List.length set >= min_prefixes then
              Option.map
                (fun link -> (c.Ast.hostname, link, set))
                (link_of_attachment snap c.Ast.hostname attach)
            else None)
          (deny_sets c))
      configs
  in
  (* A deny set shared verbatim by attachments on >= min_routers distinct
     routers is the uniform pattern (Listing 3's Strawman 1 tell). *)
  List.filter_map
    (fun (_router, link, set) ->
      let holders =
        List.sort_uniq String.compare
          (List.filter_map
             (fun (router', _, set') ->
               if set' = set then Some router' else None)
             attachments)
      in
      if List.length holders >= min_routers then Some link else None)
    attachments
  |> List.sort_uniq compare

let score_links ~attack ~flagged (t : Attack.target) =
  match t.Attack.fake_edges with
  | Some truth ->
      Attack.edge_score ~attack ~truth ~claimed:flagged
        ~detail:[ ("grounded", 1.0) ]
        ()
  | None ->
      Attack.score ~attack ~claims:(List.length flagged) ~hits:0 ~relevant:0
        ~detail:[ ("grounded", 0.0) ]
        ()

let filter_pattern =
  {
    Attack.name = "filter_pattern";
    doc =
      "flag links whose attachment-point deny set recurs verbatim across \
       routers (uniform-filter fingerprint)";
    run =
      (fun t ->
        let flagged =
          filter_links t.Attack.anon_snapshot t.Attack.anon_configs
        in
        score_links ~attack:"filter_pattern" ~flagged t);
  }

let no_traffic =
  {
    Attack.name = "no_traffic";
    doc =
      "simulate the shared network and flag router links no delivered \
       host-to-host path crosses";
    run =
      (fun t ->
        let flagged = no_traffic_links t.Attack.anon_snapshot in
        score_links ~attack:"no_traffic" ~flagged t);
  }
