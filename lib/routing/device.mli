(** Compiled device and network model.

    [compile] turns a set of parsed CiscoLite configurations into the
    semantic model the protocol engines run on: routers with resolved
    protocol processes and filters, hosts, the derived layer-3 adjacency
    (interfaces sharing a subnet), host attachment points, and the lookup
    tables the hot kernels read (dense router ids, per-interface and
    per-arrival tables). This is the Batfish-equivalent
    "vendor-independent model" of the reproduction, and [compile] is its
    only compiler: every order and first-match rule of the model is
    fixed here. *)

open Netcore

type iface = {
  ifc_name : string;
  ifc_addr : Ipv4.t;
  ifc_plen : int;
  ifc_cost : int;  (** OSPF cost; CiscoLite default is 10 *)
  ifc_delay : int;  (** EIGRP delay metric component; default 10 *)
  ifc_acl_in : Configlang.Ast.acl option;  (** packet filter, inbound *)
  ifc_acl_out : Configlang.Ast.acl option;  (** packet filter, outbound *)
}

val ifc_prefix : iface -> Prefix.t

type ospf_proc = {
  op_networks : (Prefix.t * int) list;
  op_filters : (string * Configlang.Ast.prefix_list) list;
      (** inbound distribute lists, keyed by interface name *)
}

type rip_proc = {
  rp_networks : Prefix.t list;
  rp_filters : (string * Configlang.Ast.prefix_list) list;
}

type eigrp_proc = {
  ep_as : int;
  ep_networks : Prefix.t list;
  ep_filters : (string * Configlang.Ast.prefix_list) list;
}

type bgp_neighbor = {
  bn_addr : Ipv4.t;
  bn_remote_as : int;
  bn_filter : Configlang.Ast.prefix_list option;
  bn_route_map : Configlang.Ast.route_map option;  (** inbound policy *)
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

val host_prefix : host -> Prefix.t

(** One directed router-router adjacency: [a_from] can forward out of
    [a_out_iface] directly to [a_to] (whose receiving interface is
    [a_in_iface]). Subnets with more than two routers yield a clique. *)
type adj = {
  a_from : string;
  a_out_iface : iface;
  a_to : string;
  a_in_iface : iface;
}

module Smap : Map.S with type key = string

type tables
(** The lookup tables of a network, read through {!router_ids},
    {!find_iface} and {!arrival_iface}. *)

type network = {
  routers : router Smap.t;
  hosts : host Smap.t;
  adjs : adj list Smap.t;
      (** outgoing adjacencies per router (every router has a row),
          sorted by (peer, out-interface name) — the next-hop order of
          {!Fib.merge_nexthops} *)
  attachments : (string * iface) list Smap.t;
      (** host name -> (gateway router, router-side interface) *)
  addr_owner : string Prefix.Map.t;
      (** /32 of every router interface address -> router name *)
  tables : tables;  (** built from [routers] and [adjs] by {!compile} *)
}

val compile : Configlang.Ast.config list -> (network, string) result
(** Validates and links the configurations. Errors include duplicate
    hostnames, hosts without an addressed interface, references to
    undefined prefix lists, and duplicate interface addresses. A
    successful result does not depend on the order of the list. Ticks the
    [compiled.build] telemetry counter. *)

val compile_exn : Configlang.Ast.config list -> network

val router_graph : network -> Graph.t
(** The router-level topology as a simple graph (hosts excluded), i.e. the
    [G = (R, E_R)] view of ConfMask §4.2. *)

val full_graph : network -> Graph.t
(** Routers and hosts. *)

val find_adj : network -> string -> string -> adj option
(** [find_adj net u v] is the directed adjacency from router [u] to
    router [v] of lowest cost, then of lowest out-interface name, if
    they share a subnet. *)

val router_ids : network -> Interner.t
(** Router names interned in ascending (= [Smap] key) order. *)

val find_iface : network -> string -> string -> iface option
(** [find_iface net router name]: the first interface of [router] named
    [name], as [List.find_opt] over [r_ifaces] returns it. *)

val arrival_iface : network -> string -> string -> string -> iface option
(** [arrival_iface net router out_name nh]: the interface a packet
    enters [nh] on when [router] forwards it out of [out_name] — the
    [a_in_iface] of the first adjacency of [router]'s row with that out
    interface and peer. *)

val owner_of_addr : network -> Ipv4.t -> string option
(** The router owning an interface address. *)

val ospf_enabled : router -> iface -> bool
(** Whether the interface address falls under an OSPF network statement. *)

val rip_enabled : router -> iface -> bool
val eigrp_enabled : router -> iface -> bool

val igp_filters : router -> (string * Configlang.Ast.prefix_list) list
(** All inbound IGP distribute-lists of the router (OSPF + RIP + EIGRP). *)

val as_of_router : router -> int option
(** The BGP AS number, when the router runs BGP. *)

val iface_filter_denies :
  (string * Configlang.Ast.prefix_list) list -> string -> Prefix.t -> bool
(** [iface_filter_denies filters iface p]: whether an inbound
    distribute-list bound to [iface] denies routes for [p]. Prefix lists
    use first-match semantics with an implicit trailing deny, so an
    attached filter with no matching rule denies. Interfaces with no
    attached filter accept everything. *)
