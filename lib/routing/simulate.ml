(* merged candidate routes per protocol *)
module Smap = Device.Smap
module Imap = Map.Make (Int)

type plane = Dataplane.t option Atomic.t

type snapshot = {
  net : Device.network;
  fibs : Fib.t Smap.t;
  plane : plane;
}

(* Every snapshot starts with an empty plane cell, so a snapshot built
   from other FIBs can never inherit an extraction of different ones. *)
let make_snapshot ~net ~fibs = { net; fibs; plane = Atomic.make None }

(* A static route is usable when its next hop lies on one of the router's
   connected subnets; the adjacency identifies the neighbor device. *)
let static_routes (net : Device.network) (r : Device.router) =
  List.filter_map
    (fun (st : Configlang.Ast.static_route) ->
      let via =
        List.find_opt
          (fun i -> Netcore.Prefix.mem st.st_next_hop (Device.ifc_prefix i))
          r.r_ifaces
      in
      match via with
      | None -> None
      | Some i ->
          Option.map
            (fun owner ->
              {
                Fib.rt_prefix = st.st_prefix;
                rt_proto = Fib.Static;
                rt_metric = 0;
                rt_nexthops = [ { Fib.nh_router = owner; nh_iface = i.ifc_name } ];
              })
            (Device.owner_of_addr net st.st_next_hop))
    r.r_statics

let connected_routes (r : Device.router) =
  List.map
    (fun i ->
      {
        Fib.rt_prefix = Device.ifc_prefix i;
        rt_proto = Fib.Connected;
        rt_metric = 0;
        rt_nexthops = [];
      })
    r.r_ifaces

type igp_domain = {
  dom_key : [ `As of int | `Residual | `Global ];
  dom_members : string list;
  dom_scope : string -> bool;
}

(* One IGP domain per AS when BGP is present (BGP-less routers form a
   residual domain), a single global domain otherwise. Membership lookups
   are Map-based; scopes are only ever evaluated on router names. *)
let igp_domains (net : Device.network) =
  let has_bgp =
    Smap.exists (fun _ (r : Device.router) -> r.r_bgp <> None) net.routers
  in
  if not has_bgp then
    [
      {
        dom_key = `Global;
        dom_members = List.map fst (Smap.bindings net.routers);
        dom_scope = (fun _ -> true);
      };
    ]
  else
    let member_as =
      Smap.filter_map (fun _ r -> Device.as_of_router r) net.routers
    in
    let groups =
      Smap.fold
        (fun name asn acc ->
          Imap.update asn
            (function None -> Some [ name ] | Some l -> Some (name :: l))
            acc)
        member_as Imap.empty
    in
    let as_domains =
      Imap.fold
        (fun asn members acc ->
          {
            dom_key = `As asn;
            dom_members = List.rev members;
            dom_scope = (fun n -> Smap.find_opt n member_as = Some asn);
          }
          :: acc)
        groups []
      |> List.rev
    in
    let residual =
      Smap.fold
        (fun name _ acc -> if Smap.mem name member_as then acc else name :: acc)
        net.routers []
      |> List.rev
    in
    as_domains
    @ [
        {
          dom_key = `Residual;
          dom_members = residual;
          dom_scope = (fun n -> not (Smap.mem n member_as));
        };
      ]

let local_candidates net r = connected_routes r @ static_routes net r

let others_fib net r dv = Fib.of_candidates (local_candidates net r @ dv)

let base_fibs ?pool net st members =
  match st with
  | None -> List.map snd members
  | Some st -> Ospf.base_fibs ?pool st net members

(* One domain's base FIBs: its SPF state and DV routes, each member's
   others FIB, then the constructor. Protocols none of the members run
   are skipped. *)
let domain_base_fibs ?pool (net : Device.network) d =
  let member_runs f =
    List.exists
      (fun m ->
        match Smap.find_opt m net.routers with
        | Some r -> f r
        | None -> false)
      d.dom_members
  in
  let scope = d.dom_scope in
  let st =
    if member_runs (fun r -> r.Device.r_ospf <> None) then
      Some (Ospf.prepare ~scope ?pool net)
    else None
  in
  let rip =
    if member_runs (fun r -> r.Device.r_rip <> None) then Rip.compute ~scope net
    else Smap.empty
  in
  let eigrp =
    if member_runs (fun r -> r.Device.r_eigrp <> None) then
      Eigrp.compute ~scope net
    else Smap.empty
  in
  let routes m tbl = Option.value ~default:[] (Smap.find_opt m tbl) in
  let members =
    List.filter_map
      (fun m ->
        Option.map
          (fun r -> (m, others_fib net r (routes m rip @ routes m eigrp)))
          (Smap.find_opt m net.routers))
      d.dom_members
  in
  List.combine (List.map fst members) (base_fibs ?pool net st members)

let run_net ?pool (net : Device.network) =
  let has_bgp =
    Smap.exists (fun _ (r : Device.router) -> r.r_bgp <> None) net.routers
  in
  let base_fibs =
    (* Domains are disjoint and cover every router, so each is an
       independent parallel task. *)
    Netcore.Pool.parallel_map ?pool
      (fun d -> domain_base_fibs ?pool net d)
      (igp_domains net)
    |> List.fold_left
         (List.fold_left (fun acc (m, fib) -> Smap.add m fib acc))
         Smap.empty
  in
  if not has_bgp then base_fibs
  else
    let bgp_candidates = Bgp.compute net ~igp_fibs:base_fibs in
    Smap.mapi
      (fun name fib ->
        Fib.add_candidates
          (Option.value ~default:[] (Smap.find_opt name bgp_candidates))
          fib)
      base_fibs

let run ?pool configs =
  match Device.compile configs with
  | Error _ as e -> e
  | Ok net -> Ok (make_snapshot ~net ~fibs:(run_net ?pool net))

let run_exn ?pool configs =
  match run ?pool configs with Ok s -> s | Error m -> failwith m

(* Filled by compare-and-set rather than a [Lazy.t], which raises when
   two domains force it at once: racing extractions both finish, the
   first to publish wins, and every caller returns the published plane. *)
let dataplane s =
  match Atomic.get s.plane with
  | Some dp -> dp
  | None ->
      let dp = Dataplane.extract s.net s.fibs in
      if Atomic.compare_and_set s.plane None (Some dp) then dp
      else Option.get (Atomic.get s.plane)

(* A read of the memo that never fills it: a partial plane must not be
   mistaken for the whole plane by a later caller. *)
let dataplane_on ~hosts s =
  match Atomic.get s.plane with
  | Some dp -> dp
  | None -> Dataplane.extract ~hosts s.net s.fibs

let host_prefixes (net : Device.network) =
  Smap.fold
    (fun name h acc -> (Device.host_prefix h, name) :: acc)
    net.hosts []
  |> List.sort compare

let host_routes s =
  let hps = host_prefixes s.net in
  Smap.fold
    (fun rname fib acc ->
      let names = Fib.map_bodies (fun b -> Fib.nexthop_names b.nexthops) fib in
      List.fold_left
        (fun acc (hp, _) ->
          match Fib.body_index fib hp with
          | -1 -> acc
          | i -> if names.(i) = [] then acc else (rname, hp, names.(i)) :: acc)
        acc hps)
    s.fibs []
  |> List.sort compare
