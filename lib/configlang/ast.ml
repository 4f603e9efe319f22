open Netcore

type action = Permit | Deny

type prefix_rule = {
  seq : int;
  action : action;
  rule_prefix : Prefix.t;
  le : int option;
}

type prefix_list = { pl_name : string; pl_rules : prefix_rule list }

type acl_rule = {
  acl_action : action;
  acl_src : Prefix.t option;
  acl_dst : Prefix.t option;
}

type acl = { acl_name : string; acl_rules : acl_rule list }

type interface = {
  if_name : string;
  if_address : (Ipv4.t * int) option;
  if_cost : int option;
  if_delay : int option;
  if_acl_in : string option;
  if_acl_out : string option;
  if_description : string option;
  if_shutdown : bool;
  if_extra : string list;
}

type distribute = { dl_list : string; dl_iface : string }

type ospf = {
  ospf_process : int;
  ospf_networks : (Prefix.t * int) list;
  ospf_distribute_in : distribute list;
  ospf_extra : string list;
}

type rip = {
  rip_networks : Prefix.t list;
  rip_distribute_in : distribute list;
  rip_extra : string list;
}

type eigrp = {
  eigrp_as : int;
  eigrp_networks : Prefix.t list;
  eigrp_distribute_in : distribute list;
  eigrp_extra : string list;
}

type route_map_clause = {
  rm_seq : int;
  rm_action : action;
  rm_set_local_pref : int option;
}

type route_map = { rm_name : string; rm_clauses : route_map_clause list }

type neighbor = {
  nb_addr : Ipv4.t;
  nb_remote_as : int;
  nb_distribute_in : string option;
  nb_route_map_in : string option;
}

type bgp = {
  bgp_as : int;
  bgp_router_id : Ipv4.t option;
  bgp_networks : Prefix.t list;
  bgp_neighbors : neighbor list;
  bgp_extra : string list;
}

type static_route = { st_prefix : Prefix.t; st_next_hop : Ipv4.t }

type kind = Router | Host

type config = {
  hostname : string;
  kind : kind;
  interfaces : interface list;
  ospf : ospf option;
  rip : rip option;
  eigrp : eigrp option;
  bgp : bgp option;
  prefix_lists : prefix_list list;
  acls : acl list;
  route_maps : route_map list;
  statics : static_route list;
  default_gateway : Ipv4.t option;
  extra : string list;
}

let empty_interface name =
  {
    if_name = name;
    if_address = None;
    if_cost = None;
    if_delay = None;
    if_acl_in = None;
    if_acl_out = None;
    if_description = None;
    if_shutdown = false;
    if_extra = [];
  }

let empty_ospf process =
  { ospf_process = process; ospf_networks = []; ospf_distribute_in = []; ospf_extra = [] }

let empty_rip = { rip_networks = []; rip_distribute_in = []; rip_extra = [] }

let empty_eigrp asn =
  { eigrp_as = asn; eigrp_networks = []; eigrp_distribute_in = []; eigrp_extra = [] }

let empty_bgp asn =
  { bgp_as = asn; bgp_router_id = None; bgp_networks = []; bgp_neighbors = []; bgp_extra = [] }

let no_hostname = "(no \"hostname\")"

let empty_config hostname =
  {
    hostname;
    kind = Router;
    interfaces = [];
    ospf = None;
    rip = None;
    eigrp = None;
    bgp = None;
    prefix_lists = [];
    acls = [];
    route_maps = [];
    statics = [];
    default_gateway = None;
    extra = [];
  }

let interface_prefix i =
  Option.map (fun (addr, len) -> Prefix.v addr len) i.if_address

let find_interface c name =
  List.find_opt (fun i -> String.equal i.if_name name) c.interfaces

let find_prefix_list c name =
  List.find_opt (fun pl -> String.equal pl.pl_name name) c.prefix_lists

let find_acl c name =
  List.find_opt (fun a -> String.equal a.acl_name name) c.acls

let find_route_map c name =
  List.find_opt (fun rm -> String.equal rm.rm_name name) c.route_maps

let acl_permits acl ~src ~dst =
  let matches r =
    (match r.acl_src with Some p -> Prefix.mem src p | None -> true)
    && match r.acl_dst with Some p -> Prefix.mem dst p | None -> true
  in
  match List.find_opt matches acl.acl_rules with
  | Some r -> r.acl_action = Permit
  | None -> false

let rule_matches rule p =
  let rp = rule.rule_prefix in
  Prefix.subset ~sub:p ~super:rp
  &&
  match rule.le with
  | None -> Prefix.length p = Prefix.length rp
  | Some le -> Prefix.length p <= le

let prefix_list_matches pl p =
  (* The rules are almost always stored in sequence order already (the
     parser and the anonymizer both append in order); only sort when they
     are not, since this runs on every route-import decision. *)
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> a.seq <= b.seq && is_sorted rest
    | [ _ ] | [] -> true
  in
  let rules =
    if is_sorted pl.pl_rules then pl.pl_rules
    else List.sort (fun a b -> Int.compare a.seq b.seq) pl.pl_rules
  in
  List.find_opt (fun r -> rule_matches r p) rules
  |> Option.map (fun r -> r.action)

let add_prefix_list_rule c name action prefix =
  let rule seq = { seq; action; rule_prefix = prefix; le = None } in
  let updated, prefix_lists =
    List.fold_left
      (fun (updated, acc) pl ->
        if String.equal pl.pl_name name then
          let next_seq =
            5 + List.fold_left (fun m r -> max m r.seq) 0 pl.pl_rules
          in
          (true, { pl with pl_rules = pl.pl_rules @ [ rule next_seq ] } :: acc)
        else (updated, pl :: acc))
      (false, []) c.prefix_lists
  in
  let prefix_lists = List.rev prefix_lists in
  if updated then { c with prefix_lists }
  else
    { c with prefix_lists = c.prefix_lists @ [ { pl_name = name; pl_rules = [ rule 5 ] } ] }
