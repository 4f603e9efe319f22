open Netcore
module Device = Routing.Device
module Smap = Device.Smap

(* ---- OSPF ---- *)

let dijkstra ~succ seeds =
  let rec loop dist pq =
    match Pqueue.pop pq with
    | None -> dist
    | Some (d, v, pq) ->
        if Smap.mem v dist then loop dist pq
        else
          let dist = Smap.add v d dist in
          let pq =
            List.fold_left
              (fun pq (u, c) ->
                if Smap.mem u dist then pq else Pqueue.insert (d + c) u pq)
              pq (succ v)
          in
          loop dist pq
  in
  loop Smap.empty
    (List.fold_left (fun pq (r, c) -> Pqueue.insert c r pq) Pqueue.empty seeds)

let in_scope scope name = match scope with None -> true | Some f -> f name

(* The OSPF adjacencies: both routers in scope, and both ends of the link
   covered by an OSPF network statement. *)
let ospf_edges ?scope (net : Device.network) =
  Smap.fold
    (fun u adjs acc ->
      match Smap.find_opt u net.routers with
      | Some ru when in_scope scope u ->
          List.fold_left
            (fun acc (a : Device.adj) ->
              match Smap.find_opt a.a_to net.routers with
              | Some rv
                when in_scope scope a.a_to
                     && Device.ospf_enabled ru a.a_out_iface
                     && Device.ospf_enabled rv a.a_in_iface ->
                  a :: acc
              | Some _ | None -> acc)
            acc adjs
      | Some _ | None -> acc)
    net.adjs []
  |> List.rev

let edges_from edges v =
  List.filter (fun (a : Device.adj) -> String.equal a.a_from v) edges

(* Every prefix an in-scope router advertises into OSPF, with its
   advertisers and their stub costs. *)
let advertised ?scope (net : Device.network) =
  Smap.fold
    (fun name (r : Device.router) acc ->
      if not (in_scope scope name) then acc
      else
        List.fold_left
          (fun acc (i : Device.iface) ->
            if not (Device.ospf_enabled r i) then acc
            else
              let p = Device.ifc_prefix i in
              let seeds = Option.value ~default:[] (Prefix.Map.find_opt p acc) in
              Prefix.Map.add p ((name, i.ifc_cost) :: seeds) acc)
          acc r.r_ifaces)
    net.routers Prefix.Map.empty

let ospf_routes ?scope (net : Device.network) =
  let edges = ospf_edges ?scope net in
  let into v =
    List.filter_map
      (fun (a : Device.adj) ->
        if String.equal a.a_to v then Some (a.a_from, a.a_out_iface.ifc_cost)
        else None)
      edges
  in
  let prefixes = Prefix.Map.bindings (advertised ?scope net) in
  let dists =
    List.map (fun (p, seeds) -> (p, seeds, dijkstra ~succ:into seeds)) prefixes
  in
  Smap.fold
    (fun name (r : Device.router) acc ->
      match r.r_ospf with
      | Some ospf when in_scope scope name ->
          let select (p, seeds, dist) =
            match Smap.find_opt name dist with
            | None -> None
            | Some _ when List.mem_assoc name seeds -> None
            | Some d ->
                let nexthops =
                  List.filter_map
                    (fun (a : Device.adj) ->
                      let out = a.a_out_iface in
                      match Smap.find_opt a.a_to dist with
                      | Some dn
                        when dn + out.ifc_cost = d
                             && not
                                  (Device.iface_filter_denies ospf.op_filters
                                     out.ifc_name p) ->
                          Some
                            {
                              Routing.Fib.nh_router = a.a_to;
                              nh_iface = out.ifc_name;
                            }
                      | Some _ | None -> None)
                    (edges_from edges name)
                in
                if nexthops = [] then None
                else
                  Some
                    {
                      Routing.Fib.rt_prefix = p;
                      rt_proto = Routing.Fib.Ospf;
                      rt_metric = d;
                      rt_nexthops = nexthops;
                    }
          in
          (match List.filter_map select dists with
          | [] -> acc
          | routes -> Smap.add name routes acc)
      | Some _ | None -> acc)
    net.routers Smap.empty

let min_cost ?scope net u =
  let edges = ospf_edges ?scope net in
  dijkstra
    ~succ:(fun v ->
      List.map
        (fun (a : Device.adj) -> (a.a_to, a.a_out_iface.ifc_cost))
        (edges_from edges v))
    [ (u, 0) ]

(* ---- data plane ---- *)

(* One traceroute per ordered pair of distinct hosts, source-major. *)
let traces ?max_paths ~hosts (snap : Routing.Simulate.snapshot) =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if String.equal src dst then None
          else
            Some ((src, dst), Routing.Dataplane.traceroute ?max_paths snap.net snap.fibs ~src ~dst))
        hosts)
    hosts

let dataplane ?max_paths (snap : Routing.Simulate.snapshot) =
  Routing.Dataplane.of_traces
    (traces ?max_paths ~hosts:(List.map fst (Smap.bindings snap.net.hosts)) snap)

(* ---- Definition 3.3 ---- *)

let equivalence ~(orig : Routing.Simulate.snapshot)
    ~(anon : Routing.Simulate.snapshot) =
  let g0 = Device.router_graph orig.net and g1 = Device.router_graph anon.net in
  let hosts = List.map fst (Smap.bindings orig.net.hosts) in
  match
    ( List.find_opt (fun n -> not (Graph.mem_node n g1)) (Graph.nodes g0),
      List.find_opt (fun (u, v) -> not (Graph.mem_edge u v g1)) (Graph.edges g0),
      List.find_opt (fun h -> not (Smap.mem h anon.net.hosts)) hosts )
  with
  | Some n, _, _ -> Error (Printf.sprintf "router %s is missing" n)
  | None, Some (u, v), _ -> Error (Printf.sprintf "link %s -- %s is missing" u v)
  | None, None, Some h -> Error (Printf.sprintf "host %s is missing" h)
  | None, None, None -> (
      let differs ((_, (t0 : Routing.Dataplane.trace)), (_, (t1 : Routing.Dataplane.trace))) =
        t0.delivered <> t1.delivered
      in
      match List.find_opt differs (List.combine (traces ~hosts orig) (traces ~hosts anon)) with
      | None -> Ok ()
      | Some (((s, d), _), _) ->
          Error (Printf.sprintf "the paths from %s to %s differ" s d))
