(** Append-only configuration edits.

    Every transformation ConfMask performs on configuration files goes
    through this module, which enforces the paper's core structural
    invariant (§4.2, §5.2): existing lines are never modified or deleted —
    interfaces, network statements, neighbors and filters are only added.
    (The only exception is the explicit rollback of the route-anonymity
    algorithm's own filters, Algorithm 2 lines 6-7.) *)

open Netcore
open Configlang

val used_prefixes : Ast.config list -> Prefix.t list
(** Every prefix mentioned anywhere: interface subnets, network
    statements, prefix-list rules, gateways — the avoid set for the fresh
    prefix allocator. *)

val update : Ast.config list -> string -> (Ast.config -> Ast.config) -> Ast.config list
(** [update configs hostname f] maps [f] over the named device. Raises
    [Not_found] if absent. *)

val update_all :
  Ast.config list -> (string * (Ast.config -> Ast.config)) list -> Ast.config list
(** [update_all configs edits] applies every [(hostname, f)] edit in one
    pass over the config list: the edits are grouped per hostname
    (preserving their relative order; a device's edits compose left to
    right) and each config is rewritten once. Equal to folding {!update}
    over [edits] — an edit only touches its own device — but O(configs +
    edits) instead of O(configs × edits), which is what the anonymization
    fixpoints apply per-iteration filter batches through. Raises
    [Not_found] if any named device is absent. *)

val fresh_iface_name : Ast.config -> string
(** Next unused [Eth<n>] name, continuing the device's numbering so fake
    interfaces are indistinguishable from real ones by name. *)

val add_interface :
  Ast.config ->
  name:string ->
  addr:Ipv4.t ->
  plen:int ->
  ?cost:int ->
  ?desc:string ->
  unit ->
  Ast.config

val add_igp_network : Ast.config -> Prefix.t -> Ast.config
(** Adds a [network] statement for the prefix to the device's OSPF (area
    0) or RIP process, whichever it runs; no-op if neither or if already
    covered by an existing statement. *)

val add_bgp_network : Ast.config -> Prefix.t -> Ast.config

val add_bgp_neighbor : Ast.config -> addr:Ipv4.t -> remote_as:int -> Ast.config

(** {1 Route filters}

    Deny filters are kept in per-attachment-point prefix lists: list
    [DL-<iface>] for IGP distribute-lists, [RejPfxs-<n>] for BGP neighbor
    lists (after Listing 3 of the paper). Each list holds the deny rules
    followed by a catch-all [permit 0.0.0.0/0 le 32], so an attached
    filter only rejects the listed destinations. *)

val deny_on_iface : Ast.config -> iface:string -> Prefix.t -> Ast.config
(** Ensure the IGP inbound distribute-list on [iface] denies the prefix.
    Idempotent. Raises [Invalid_argument] if the device runs no IGP. *)

val deny_on_bgp_neighbor : Ast.config -> neighbor:Ipv4.t -> Prefix.t -> Ast.config
(** Same for a BGP neighbor's inbound filter. *)

val undeny_on_iface : Ast.config -> iface:string -> Prefix.t -> Ast.config
(** Rollback for Algorithm 2: removes the deny rule; drops the list and
    its binding entirely when no denies remain. *)

val undeny_on_bgp_neighbor : Ast.config -> neighbor:Ipv4.t -> Prefix.t -> Ast.config
