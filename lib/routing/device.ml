open Netcore
module Ast = Configlang.Ast
module Smap = Map.Make (String)

type iface = {
  ifc_name : string;
  ifc_addr : Ipv4.t;
  ifc_plen : int;
  ifc_cost : int;
  ifc_delay : int;
  ifc_acl_in : Ast.acl option;
  ifc_acl_out : Ast.acl option;
}

let ifc_prefix i = Prefix.v i.ifc_addr i.ifc_plen

type ospf_proc = {
  op_networks : (Prefix.t * int) list;
  op_filters : (string * Ast.prefix_list) list;
}

type rip_proc = {
  rp_networks : Prefix.t list;
  rp_filters : (string * Ast.prefix_list) list;
}

type eigrp_proc = {
  ep_as : int;
  ep_networks : Prefix.t list;
  ep_filters : (string * Ast.prefix_list) list;
}

type bgp_neighbor = {
  bn_addr : Ipv4.t;
  bn_remote_as : int;
  bn_filter : Ast.prefix_list option;
  bn_route_map : Ast.route_map option;
}

type bgp_proc = {
  bp_as : int;
  bp_router_id : Ipv4.t option;
  bp_networks : Prefix.t list;
  bp_neighbors : bgp_neighbor list;
}

type router = {
  r_name : string;
  r_ifaces : iface list;
  r_ospf : ospf_proc option;
  r_rip : rip_proc option;
  r_eigrp : eigrp_proc option;
  r_bgp : bgp_proc option;
  r_statics : Configlang.Ast.static_route list;
}

type host = {
  h_name : string;
  h_addr : Ipv4.t;
  h_plen : int;
  h_gateway : Ipv4.t option;
}

let host_prefix h = Prefix.v h.h_addr h.h_plen

type adj = {
  a_from : string;
  a_out_iface : iface;
  a_to : string;
  a_in_iface : iface;
}

type tables = {
  t_ids : Interner.t;
  t_ifaces : (string * string, iface) Hashtbl.t;
  t_arrivals : (string * string * string, iface) Hashtbl.t;
}

type network = {
  routers : router Smap.t;
  hosts : host Smap.t;
  adjs : adj list Smap.t;
  attachments : (string * iface) list Smap.t;
  addr_owner : string Prefix.Map.t;
  tables : tables;
}

let c_build = Telemetry.counter "compiled.build"

exception Compile_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt

let default_ospf_cost = 10
let default_delay = 10

let compile_iface (c : Ast.config) (i : Ast.interface) =
  let resolve_acl name =
    match Ast.find_acl c name with
    | Some a -> a
    | None -> err "%s: undefined access-list %s" c.hostname name
  in
  match i.if_address with
  | None -> None
  | Some _ when i.if_shutdown -> None
  | Some (addr, plen) ->
      Some
        {
          ifc_name = i.if_name;
          ifc_addr = addr;
          ifc_plen = plen;
          ifc_cost = Option.value i.if_cost ~default:default_ospf_cost;
          ifc_delay = Option.value i.if_delay ~default:default_delay;
          ifc_acl_in = Option.map resolve_acl i.if_acl_in;
          ifc_acl_out = Option.map resolve_acl i.if_acl_out;
        }

let resolve_filter (c : Ast.config) name =
  match Ast.find_prefix_list c name with
  | Some pl -> pl
  | None -> err "%s: undefined prefix-list %s" c.hostname name

let compile_router (c : Ast.config) =
  let ifaces = List.filter_map (compile_iface c) c.interfaces in
  let distributes ds =
    List.map
      (fun (d : Ast.distribute) -> (d.dl_iface, resolve_filter c d.dl_list))
      ds
  in
  let ospf =
    Option.map
      (fun (o : Ast.ospf) ->
        {
          op_networks = o.ospf_networks;
          op_filters = distributes o.ospf_distribute_in;
        })
      c.ospf
  in
  let rip =
    Option.map
      (fun (r : Ast.rip) ->
        { rp_networks = r.rip_networks; rp_filters = distributes r.rip_distribute_in })
      c.rip
  in
  let eigrp =
    Option.map
      (fun (e : Ast.eigrp) ->
        {
          ep_as = e.eigrp_as;
          ep_networks = e.eigrp_networks;
          ep_filters = distributes e.eigrp_distribute_in;
        })
      c.eigrp
  in
  let bgp =
    Option.map
      (fun (b : Ast.bgp) ->
        {
          bp_as = b.bgp_as;
          bp_router_id = b.bgp_router_id;
          bp_networks = b.bgp_networks;
          bp_neighbors =
            List.map
              (fun (n : Ast.neighbor) ->
                let resolve_rm name =
                  match Ast.find_route_map c name with
                  | Some rm -> rm
                  | None -> err "%s: undefined route-map %s" c.hostname name
                in
                {
                  bn_addr = n.nb_addr;
                  bn_remote_as = n.nb_remote_as;
                  bn_filter = Option.map (resolve_filter c) n.nb_distribute_in;
                  bn_route_map = Option.map resolve_rm n.nb_route_map_in;
                })
              b.bgp_neighbors;
        })
      c.bgp
  in
  {
    r_name = c.hostname;
    r_ifaces = ifaces;
    r_ospf = ospf;
    r_rip = rip;
    r_eigrp = eigrp;
    r_bgp = bgp;
    r_statics = c.statics;
  }

let compile_host (c : Ast.config) =
  match List.filter_map (compile_iface c) c.interfaces with
  | [ i ] ->
      {
        h_name = c.hostname;
        h_addr = i.ifc_addr;
        h_plen = i.ifc_plen;
        h_gateway = c.default_gateway;
      }
  | [] -> err "host %s has no addressed interface" c.hostname
  | _ -> err "host %s has more than one addressed interface" c.hostname

let compare_adj a b =
  match String.compare a.a_to b.a_to with
  | 0 -> String.compare a.a_out_iface.ifc_name b.a_out_iface.ifc_name
  | c -> c

(* First-wins insertion: the tables answer what a first-match
   [List.find_opt] scan answers, and [Hashtbl.find] returns the most
   recently added binding. *)
let add_if_absent tbl key v =
  if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

let build_tables routers adjs =
  Telemetry.incr c_build;
  let ids = Interner.create ~capacity:(Smap.cardinal routers) () in
  Smap.iter (fun name _ -> ignore (Interner.intern ids name)) routers;
  let count f m = Smap.fold (fun _ v n -> n + List.length (f v)) m 0 in
  let ifaces = Hashtbl.create (count (fun r -> r.r_ifaces) routers) in
  Smap.iter
    (fun name r ->
      List.iter (fun i -> add_if_absent ifaces (name, i.ifc_name) i) r.r_ifaces)
    routers;
  let arrivals = Hashtbl.create (count Fun.id adjs) in
  Smap.iter
    (fun name row ->
      List.iter
        (fun a ->
          add_if_absent arrivals
            (name, a.a_out_iface.ifc_name, a.a_to)
            a.a_in_iface)
        row)
    adjs;
  { t_ids = ids; t_ifaces = ifaces; t_arrivals = arrivals }

let compile configs =
  try
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (c : Ast.config) ->
        if Hashtbl.mem seen c.hostname then err "duplicate hostname %s" c.hostname;
        Hashtbl.add seen c.hostname ())
      configs;
    let routers, hosts =
      List.fold_left
        (fun (rs, hs) (c : Ast.config) ->
          match c.kind with
          | Ast.Router -> (Smap.add c.hostname (compile_router c) rs, hs)
          | Ast.Host -> (rs, Smap.add c.hostname (compile_host c) hs))
        (Smap.empty, Smap.empty) configs
    in
    (* Index router interfaces by connected subnet and detect duplicate
       addresses. *)
    let by_subnet = ref Prefix.Map.empty in
    let addr_owner = ref Prefix.Map.empty in
    Smap.iter
      (fun name r ->
        List.iter
          (fun i ->
            let a32 = Prefix.v i.ifc_addr 32 in
            (match Prefix.Map.find_opt a32 !addr_owner with
            | Some other ->
                err "address %s assigned to both %s and %s"
                  (Ipv4.to_string i.ifc_addr) other name
            | None -> ());
            addr_owner := Prefix.Map.add a32 name !addr_owner;
            by_subnet :=
              Prefix.Map.update (ifc_prefix i)
                (fun l -> Some ((name, i) :: Option.value ~default:[] l))
                !by_subnet)
          r.r_ifaces)
      routers;
    let by_subnet = !by_subnet in
    let rows = Hashtbl.create (Smap.cardinal routers) in
    Prefix.Map.iter
      (fun _p members ->
        List.iter
          (fun (u, ui) ->
            List.iter
              (fun (v, vi) ->
                if not (String.equal u v) then
                  Hashtbl.replace rows u
                    ({ a_from = u; a_out_iface = ui; a_to = v; a_in_iface = vi }
                    :: Option.value ~default:[] (Hashtbl.find_opt rows u)))
              members)
          members)
      by_subnet;
    (* Every row in (peer, out-interface name) order, the order
       [Fib.merge_nexthops] keeps next hops in: an edit that adds
       unrelated subnets leaves the rows it does not touch as they were.
       The sort is stable over a fold in ascending-subnet order, so even
       ties (a peer reached twice out of one interface name) have a fixed
       order. *)
    let adjs =
      Smap.mapi
        (fun name _ ->
          match Hashtbl.find_opt rows name with
          | None -> []
          | Some row -> List.stable_sort compare_adj (List.rev row))
        routers
    in
    (* Attach each host to the routers on its subnet; a configured gateway
       narrows the attachment to the router owning that address. *)
    let attachments =
      Smap.map
        (fun h ->
          let hp = host_prefix h in
          let candidates =
            Option.value ~default:[] (Prefix.Map.find_opt hp by_subnet)
          in
          let selected =
            match h.h_gateway with
            | None -> candidates
            | Some gw -> (
                match
                  List.filter (fun (_, i) -> Ipv4.equal i.ifc_addr gw) candidates
                with
                | [] -> candidates
                | narrowed -> narrowed)
          in
          if selected = [] then err "host %s is not attached to any router" h.h_name;
          List.sort (fun (a, _) (b, _) -> String.compare a b) selected)
        hosts
    in
    Ok
      {
        routers;
        hosts;
        adjs;
        attachments;
        addr_owner = !addr_owner;
        tables = build_tables routers adjs;
      }
  with Compile_error m -> Error m

let compile_exn configs =
  match compile configs with Ok n -> n | Error m -> failwith m

let router_graph net =
  let g = Smap.fold (fun name _ g -> Graph.add_node name g) net.routers Graph.empty in
  Smap.fold
    (fun _ adjs g ->
      List.fold_left (fun g a -> Graph.add_edge a.a_from a.a_to g) g adjs)
    net.adjs g

let full_graph net =
  let g = router_graph net in
  Smap.fold
    (fun hname atts g ->
      List.fold_left (fun g (rname, _) -> Graph.add_edge hname rname g) g atts)
    net.attachments g

(* The row is sorted by (peer, out-interface name), so the first
   adjacency of least cost also has the least interface name. *)
let find_adj net u v =
  List.fold_left
    (fun best a ->
      if not (String.equal a.a_to v) then best
      else
        match best with
        | Some b when b.a_out_iface.ifc_cost <= a.a_out_iface.ifc_cost -> best
        | _ -> Some a)
    None
    (Option.value ~default:[] (Smap.find_opt u net.adjs))

let router_ids net = net.tables.t_ids
let find_iface net router name = Hashtbl.find_opt net.tables.t_ifaces (router, name)

let arrival_iface net router out_name nh =
  Hashtbl.find_opt net.tables.t_arrivals (router, out_name, nh)

let owner_of_addr net addr =
  Prefix.Map.find_opt (Prefix.v addr 32) net.addr_owner

let ospf_enabled r i =
  match r.r_ospf with
  | None -> false
  | Some o -> List.exists (fun (net, _) -> Prefix.mem i.ifc_addr net) o.op_networks

let rip_enabled r i =
  match r.r_rip with
  | None -> false
  | Some rp -> List.exists (fun net -> Prefix.mem i.ifc_addr net) rp.rp_networks

let eigrp_enabled r i =
  match r.r_eigrp with
  | None -> false
  | Some ep -> List.exists (fun net -> Prefix.mem i.ifc_addr net) ep.ep_networks

let igp_filters r =
  (match r.r_ospf with Some o -> o.op_filters | None -> [])
  @ (match r.r_rip with Some rp -> rp.rp_filters | None -> [])
  @ match r.r_eigrp with Some ep -> ep.ep_filters | None -> []

let as_of_router r = Option.map (fun b -> b.bp_as) r.r_bgp

let iface_filter_denies filters iface p =
  match List.filter (fun (name, _) -> String.equal name iface) filters with
  | [] -> false
  | bound ->
      (* All lists bound to the interface must permit; an unmatched prefix
         hits the implicit deny. *)
      List.exists
        (fun (_, pl) ->
          match Ast.prefix_list_matches pl p with
          | Some Ast.Permit -> false
          | Some Ast.Deny | None -> true)
        bound
