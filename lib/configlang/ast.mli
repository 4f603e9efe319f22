(** Abstract syntax of CiscoLite, the Cisco-IOS-style configuration dialect
    used throughout this reproduction.

    CiscoLite covers exactly the configuration surface ConfMask reads and
    writes: interfaces with addresses/costs, OSPF, RIP and BGP processes,
    prefix lists, and inbound distribute-list filters. Every other line is
    carried verbatim ([if_extra] / [extra] / [*_extra]) and survives
    parse-print round trips, mirroring the paper's implementation which
    "leaves the lines that do not fall within these categories unchanged"
    (§6). *)

open Netcore

type action = Permit | Deny

type prefix_rule = {
  seq : int;
  action : action;
  rule_prefix : Prefix.t;
  le : int option;  (** [le n]: also match more-specific prefixes up to /n *)
}

type prefix_list = { pl_name : string; pl_rules : prefix_rule list }

(** One rule of an extended access list; [None] endpoints mean [any]. *)
type acl_rule = {
  acl_action : action;
  acl_src : Prefix.t option;
  acl_dst : Prefix.t option;
}

type acl = { acl_name : string; acl_rules : acl_rule list }

type interface = {
  if_name : string;
  if_address : (Ipv4.t * int) option;  (** address and prefix length *)
  if_cost : int option;  (** [ip ospf cost] *)
  if_delay : int option;  (** [delay], the EIGRP metric component *)
  if_acl_in : string option;  (** [ip access-group <name> in] *)
  if_acl_out : string option;  (** [ip access-group <name> out] *)
  if_description : string option;
  if_shutdown : bool;
  if_extra : string list;  (** verbatim uninterpreted sub-lines *)
}

type distribute = {
  dl_list : string;  (** name of the prefix list applied *)
  dl_iface : string;  (** interface the inbound filter is attached to *)
}

type ospf = {
  ospf_process : int;
  ospf_networks : (Prefix.t * int) list;  (** network statement, area *)
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

(** Route-map clauses are unconditional in CiscoLite (no match terms):
    the supported use is setting BGP attributes on a neighbor's inbound
    routes. Deny clauses reject the route outright. *)
type route_map_clause = {
  rm_seq : int;
  rm_action : action;
  rm_set_local_pref : int option;
}

type route_map = { rm_name : string; rm_clauses : route_map_clause list }

type neighbor = {
  nb_addr : Ipv4.t;
  nb_remote_as : int;
  nb_distribute_in : string option;  (** prefix-list filtering inbound routes *)
  nb_route_map_in : string option;  (** route-map applied to inbound routes *)
}

type bgp = {
  bgp_as : int;
  bgp_router_id : Ipv4.t option;
  bgp_networks : Prefix.t list;
  bgp_neighbors : neighbor list;
  bgp_extra : string list;
}

(** [ip route <prefix> <mask> <next-hop-address>] *)
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
  default_gateway : Ipv4.t option;  (** hosts only *)
  extra : string list;  (** verbatim uninterpreted top-level lines *)
}

val empty_interface : string -> interface
val empty_ospf : int -> ospf
val empty_rip : rip
val empty_eigrp : int -> eigrp
val empty_bgp : int -> bgp
val empty_config : string -> config

val no_hostname : string
(** The hostname both parsers give a config that declares none. No
    config can declare it: it holds a space, which no CiscoLite token
    does, and a double quote, which no JunosLite word does. *)

val interface_prefix : interface -> Prefix.t option
(** The connected subnet of an addressed interface. *)

val find_interface : config -> string -> interface option

val find_prefix_list : config -> string -> prefix_list option

val find_acl : config -> string -> acl option
val find_route_map : config -> string -> route_map option

val acl_permits : acl -> src:Ipv4.t -> dst:Ipv4.t -> bool
(** First-match over the rules; Cisco's implicit trailing deny applies
    when nothing matches. *)

val prefix_list_matches : prefix_list -> Prefix.t -> action option
(** First-match semantics over the rules ordered by sequence number;
    [None] when no rule matches (Cisco's implicit deny is applied by the
    simulator, not here). A rule matches route prefix [p] when [p] is
    contained in the rule's prefix and, if [le] is absent, has exactly the
    rule's length, or otherwise has length at most [le]. *)

val add_prefix_list_rule : config -> string -> action -> Prefix.t -> config
(** Appends a rule (with the next free sequence number) to the named list,
    creating the list if needed. *)
