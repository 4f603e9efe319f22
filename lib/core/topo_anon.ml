open Netcore
module Ast = Configlang.Ast
module Smap = Routing.Device.Smap

type result = {
  configs : Ast.config list;
  fake_edges : (string * string) list;
}

type cost_policy = Min_cost | Default_cost | Large_cost

let large_cost = 60000 (* below the OSPF metric ceiling of 65535 *)

let as_map (net : Routing.Device.network) =
  Smap.filter_map (fun _ r -> Routing.Device.as_of_router r) net.routers

(* AS-level supergraph: one node per AS number, an edge when any pair of
   border routers is adjacent. *)
let as_graph (net : Routing.Device.network) asns =
  let g =
    Smap.fold
      (fun _ asn g -> Graph.add_node (string_of_int asn) g)
      asns Graph.empty
  in
  Smap.fold
    (fun r adjs g ->
      List.fold_left
        (fun g (a : Routing.Device.adj) ->
          match (Smap.find_opt r asns, Smap.find_opt a.a_to asns) with
          | Some x, Some y when x <> y ->
              Graph.add_edge (string_of_int x) (string_of_int y) g
          | _ -> g)
        g adjs)
    net.adjs g

(* New AS-AS adjacencies become router-level fake edges between randomly
   chosen routers of the two ASes that are not already adjacent. *)
let realize_as_edges ~rng net asns as_fake_edges =
  let members asn =
    Smap.fold (fun r a acc -> if a = asn then r :: acc else acc) asns []
    |> List.sort String.compare
  in
  List.filter_map
    (fun (x, y) ->
      let xs = members (int_of_string x) and ys = members (int_of_string y) in
      let candidates =
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v ->
                if Routing.Device.find_adj net u v = None then Some (u, v) else None)
              ys)
          xs
      in
      match candidates with
      | [] -> None
      | _ -> Some (Rng.pick rng candidates))
    as_fake_edges

let c_fake_edges = Telemetry.counter "topo.fake_edges"

let anonymize ?(cost_policy = Min_cost) ~rng ~k ~orig:(snap : Routing.Simulate.snapshot)
    configs =
  Telemetry.with_span "topo.anonymize" @@ fun () ->
  let net = snap.net in
  let g = Routing.Device.router_graph net in
  let asns = as_map net in
  let is_bgp = not (Smap.is_empty asns) in
  (* Decide the fake edge set at the graph level. k-degree anonymity
     beyond the number of routers is unattainable (the maximum is the
     regular graph), so k is clamped. *)
  let k = min k (max 1 (Graph.num_nodes g)) in
  let fake_edges =
    Telemetry.with_span "topo.realize" @@ fun () ->
    if not is_bgp then snd (Graphanon.Realize.add_edges ~rng ~k g)
    else begin
      let ag = as_graph net asns in
      let k_as = min k (Graph.num_nodes ag) in
      let _, as_new = Graphanon.Realize.add_edges ~rng ~k:k_as ag in
      let inter_edges = realize_as_edges ~rng net asns as_new in
      let g_with_inter =
        List.fold_left (fun g (u, v) -> Graph.add_edge u v g) g inter_edges
      in
      let same_as u v = Smap.find_opt u asns = Smap.find_opt v asns in
      let _, intra_new =
        Graphanon.Realize.add_edges ~allowed:same_as ~rng ~k g_with_inter
      in
      inter_edges @ intra_new
    end
  in
  let fake_edges =
    List.map (fun (u, v) -> if String.compare u v <= 0 then (u, v) else (v, u)) fake_edges
    |> List.sort_uniq compare
  in
  Telemetry.add c_fake_edges (List.length fake_edges);
  (* Per-direction IGP shortest-path distances, for the OSPF cost rule,
     read in the source's IGP domain: the simulator's own scopes, so a
     link between two domains, which neither domain's SPF uses, gets no
     SFE cost. Each domain's graph is compiled on first use and each
     source's Dijkstra runs once — endpoints repeat across fake edges. *)
  let queries =
    List.map
      (fun (d : Routing.Simulate.igp_domain) ->
        (d.dom_scope, lazy (Routing.Ospf.min_cost ~scope:d.dom_scope net)))
      (Routing.Simulate.igp_domains net)
  in
  let dists = Hashtbl.create 16 in
  let min_cost u =
    match Hashtbl.find_opt dists u with
    | Some d -> d
    | None ->
        let _, query = List.find (fun (scope, _) -> scope u) queries in
        let d = Lazy.force query u in
        Hashtbl.add dists u d;
        d
  in
  let alloc = Prefix.alloc_create ~avoid:(Edits.used_prefixes configs) () in
  let runs_ospf name =
    match Smap.find_opt name net.routers with
    | Some r -> r.Routing.Device.r_ospf <> None
    | None -> false
  in
  (* One end of a fake link: router [r]'s edit that adds a fresh /30
     interface toward [peer], then [tail] — a BGP neighbor or an IGP
     network statement. *)
  let link_end r ~addr ?cost ~peer tail =
    let edit c =
      let name = Edits.fresh_iface_name c in
      tail (Edits.add_interface c ~name ~addr ~plen:30 ?cost ~desc:("to-" ^ peer) ())
    in
    (r, edit)
  in
  (* Decide every edge's addresses and costs first (the allocator and the
     cost Dijkstras run in edge order, as before), then apply the whole
     batch of per-router rewrites in one pass over the config list —
     [Edits.update_all] preserves each router's edit order, which is all
     the closures (notably [fresh_iface_name]) can observe. *)
  let edits =
    Telemetry.with_span "topo.edits" @@ fun () ->
    List.fold_left
      (fun edits (u, v) ->
        let subnet = Prefix.alloc_fresh alloc ~len:30 in
        let ua = Prefix.host subnet 1 and va = Prefix.host subnet 2 in
        (* A router with no AS is intra-domain: a link is inter-AS only
           when both ends have an AS and the two differ. *)
        match (Smap.find_opt u asns, Smap.find_opt v asns) with
        | Some as_u, Some as_v when as_u <> as_v ->
            let neighbor addr remote_as c = Edits.add_bgp_neighbor c ~addr ~remote_as in
            link_end v ~addr:va ~peer:u (neighbor ua as_u)
            :: link_end u ~addr:ua ~peer:v (neighbor va as_v)
            :: edits
        | _ ->
            (* Intra-AS / IGP-only: SFE cost rule for link-state, plain link
               for distance-vector. Disconnected components and links
               between IGP domains fall back to the default cost (they
               cannot create shortcuts anyway). *)
            let policy_cost r_to other =
              if not (runs_ospf r_to) then None
              else
                match cost_policy with
                | Min_cost -> min_cost r_to other
                | Default_cost -> None
                | Large_cost -> Some large_cost
            in
            let cost_uv = policy_cost u v in
            let cost_vu = policy_cost v u in
            let tail c = Edits.add_igp_network c subnet in
            link_end v ~addr:va ?cost:cost_vu ~peer:u tail
            :: link_end u ~addr:ua ?cost:cost_uv ~peer:v tail
            :: edits)
      [] fake_edges
  in
  let configs =
    Telemetry.with_span "topo.apply" @@ fun () ->
    Edits.update_all configs (List.rev edits)
  in
  { configs; fake_edges }
