open Netcore
open Configlang
open Ast

let used_prefixes configs =
  let add acc p = p :: acc in
  List.fold_left
    (fun acc c ->
      let acc =
        List.fold_left
          (fun acc i ->
            match interface_prefix i with Some p -> add acc p | None -> acc)
          acc c.interfaces
      in
      let acc =
        match c.ospf with
        | Some o -> List.fold_left (fun acc (p, _) -> add acc p) acc o.ospf_networks
        | None -> acc
      in
      let acc =
        match c.rip with
        | Some r -> List.fold_left add acc r.rip_networks
        | None -> acc
      in
      let acc =
        match c.eigrp with
        | Some e -> List.fold_left add acc e.eigrp_networks
        | None -> acc
      in
      let acc =
        match c.bgp with
        | Some b ->
            let acc = List.fold_left add acc b.bgp_networks in
            List.fold_left (fun acc n -> add acc (Prefix.v n.nb_addr 32)) acc b.bgp_neighbors
        | None -> acc
      in
      let acc =
        List.fold_left
          (fun acc pl ->
            List.fold_left
              (fun acc r ->
                (* The catch-all 0/0 must not poison the allocator. *)
                if Prefix.length r.rule_prefix = 0 then acc else add acc r.rule_prefix)
              acc pl.pl_rules)
          acc c.prefix_lists
      in
      let acc =
        List.fold_left
          (fun acc a ->
            List.fold_left
              (fun acc r ->
                let add_ep acc = function
                  | Some p when Prefix.length p > 0 -> add acc p
                  | Some _ | None -> acc
                in
                add_ep (add_ep acc r.acl_src) r.acl_dst)
              acc a.acl_rules)
          acc c.acls
      in
      let acc =
        List.fold_left
          (fun acc st ->
            add (add acc st.st_prefix) (Prefix.v st.st_next_hop 32))
          acc c.statics
      in
      match c.default_gateway with
      | Some gw -> add acc (Prefix.v gw 32)
      | None -> acc)
    [] configs

let update configs hostname f =
  let found = ref false in
  let configs =
    List.map
      (fun c ->
        if String.equal c.hostname hostname then begin
          found := true;
          f c
        end
        else c)
      configs
  in
  if !found then configs else raise Not_found

module Smap = Map.Make (String)

let update_all configs edits =
  match edits with
  | [] -> configs
  | [ (hostname, f) ] -> update configs hostname f
  | _ ->
      (* One pass over the list instead of one full [update] fold per
         edit: the edits are grouped per hostname first, preserving their
         relative order within each device, which is all that sequential
         application could observe — an edit closure only ever reads and
         rewrites its own device's config. *)
      let grouped =
        List.fold_left
          (fun m (hostname, f) ->
            Smap.update hostname
              (function None -> Some [ f ] | Some fs -> Some (f :: fs))
              m)
          Smap.empty edits
      in
      let unseen = ref grouped in
      let configs =
        List.map
          (fun c ->
            match Smap.find_opt c.hostname grouped with
            | None -> c
            | Some rev_fs ->
                unseen := Smap.remove c.hostname !unseen;
                List.fold_left (fun c f -> f c) c (List.rev rev_fs))
          configs
      in
      if Smap.is_empty !unseen then configs else raise Not_found

let fresh_iface_name c =
  let taken n = List.exists (fun i -> String.equal i.if_name n) c.interfaces in
  let rec search k =
    let candidate = Printf.sprintf "Eth%d" k in
    if taken candidate then search (k + 1) else candidate
  in
  search (List.length c.interfaces)

let add_interface c ~name ~addr ~plen ?cost ?desc () =
  let i =
    {
      (empty_interface name) with
      if_address = Some (addr, plen);
      if_cost = cost;
      if_description = desc;
    }
  in
  { c with interfaces = c.interfaces @ [ i ] }

let covered_by_networks p nets =
  List.exists (fun net -> Prefix.subset ~sub:p ~super:net) nets

let add_igp_network c p =
  match (c.ospf, c.rip, c.eigrp) with
  | Some o, _, _ ->
      if covered_by_networks p (List.map fst o.ospf_networks) then c
      else
        { c with ospf = Some { o with ospf_networks = o.ospf_networks @ [ (p, 0) ] } }
  | None, Some r, _ ->
      if covered_by_networks p r.rip_networks then c
      else { c with rip = Some { r with rip_networks = r.rip_networks @ [ p ] } }
  | None, None, Some e ->
      if covered_by_networks p e.eigrp_networks then c
      else
        { c with eigrp = Some { e with eigrp_networks = e.eigrp_networks @ [ p ] } }
  | None, None, None -> c

let add_bgp_network c p =
  match c.bgp with
  | None -> c
  | Some b ->
      if List.exists (Prefix.equal p) b.bgp_networks then c
      else { c with bgp = Some { b with bgp_networks = b.bgp_networks @ [ p ] } }

let add_bgp_neighbor c ~addr ~remote_as =
  match c.bgp with
  | None -> invalid_arg (c.hostname ^ ": add_bgp_neighbor on non-BGP device")
  | Some b ->
      if List.exists (fun n -> Ipv4.equal n.nb_addr addr) b.bgp_neighbors then c
      else
        let n = { nb_addr = addr; nb_remote_as = remote_as; nb_distribute_in = None; nb_route_map_in = None } in
        { c with bgp = Some { b with bgp_neighbors = b.bgp_neighbors @ [ n ] } }

(* ---- deny lists ---- *)

let catchall_seq = 10000

let catchall =
  {
    seq = catchall_seq;
    action = Permit;
    rule_prefix = Prefix.of_string_exn "0.0.0.0/0";
    le = Some 32;
  }

(* Add a deny rule (before the catch-all permit) to the named list,
   creating the list if needed. Idempotent per (list, prefix). *)
let list_deny c name p =
  match find_prefix_list c name with
  | None ->
      let pl =
        {
          pl_name = name;
          pl_rules = [ { seq = 5; action = Deny; rule_prefix = p; le = None }; catchall ];
        }
      in
      { c with prefix_lists = c.prefix_lists @ [ pl ] }
  | Some pl ->
      if
        List.exists
          (fun r -> r.action = Deny && Prefix.equal r.rule_prefix p)
          pl.pl_rules
      then c
      else
        let max_deny_seq =
          List.fold_left
            (fun m r -> if r.seq < catchall_seq then max m r.seq else m)
            0 pl.pl_rules
        in
        let rule = { seq = max_deny_seq + 5; action = Deny; rule_prefix = p; le = None } in
        let denies = List.filter (fun r -> r.seq < catchall_seq) pl.pl_rules in
        let pl = { pl with pl_rules = denies @ [ rule; catchall ] } in
        {
          c with
          prefix_lists =
            List.map (fun q -> if q.pl_name = name then pl else q) c.prefix_lists;
        }

let list_undeny c name p =
  match find_prefix_list c name with
  | None -> (c, false)
  | Some pl ->
      let denies =
        List.filter
          (fun r -> r.seq < catchall_seq && not (Prefix.equal r.rule_prefix p))
          pl.pl_rules
      in
      if List.length denies = List.length pl.pl_rules - 1 then
        (* nothing matched the prefix *)
        (c, denies <> [])
      else if denies = [] then
        ( { c with prefix_lists = List.filter (fun q -> q.pl_name <> name) c.prefix_lists },
          false )
      else
        let pl = { pl with pl_rules = denies @ [ catchall ] } in
        ( {
            c with
            prefix_lists =
              List.map (fun q -> if q.pl_name = name then pl else q) c.prefix_lists;
          },
          true )

let iface_list_name iface = "DL-" ^ iface

(* The deny goes to every IGP process the router runs: bound to one
   only, a route of another (EIGRP's distance 90 beats OSPF's 110)
   would survive it. *)
let bind_iface_filter c name iface =
  let d = { dl_list = name; dl_iface = iface } in
  let bind ds =
    if List.exists (fun x -> x.dl_list = name && x.dl_iface = iface) ds then ds
    else ds @ [ d ]
  in
  if c.ospf = None && c.rip = None && c.eigrp = None then
    invalid_arg (c.hostname ^ ": deny_on_iface on a device with no IGP");
  {
    c with
    ospf = Option.map (fun o -> { o with ospf_distribute_in = bind o.ospf_distribute_in }) c.ospf;
    rip = Option.map (fun r -> { r with rip_distribute_in = bind r.rip_distribute_in }) c.rip;
    eigrp =
      Option.map (fun e -> { e with eigrp_distribute_in = bind e.eigrp_distribute_in }) c.eigrp;
  }

let unbind_iface_filter c name iface =
  let drop ds = List.filter (fun x -> not (x.dl_list = name && x.dl_iface = iface)) ds in
  let c =
    match c.ospf with
    | Some o -> { c with ospf = Some { o with ospf_distribute_in = drop o.ospf_distribute_in } }
    | None -> c
  in
  let c =
    match c.rip with
    | Some r ->
        { c with rip = Some { r with rip_distribute_in = drop r.rip_distribute_in } }
    | None -> c
  in
  match c.eigrp with
  | Some e ->
      { c with eigrp = Some { e with eigrp_distribute_in = drop e.eigrp_distribute_in } }
  | None -> c

let deny_on_iface c ~iface p =
  let name = iface_list_name iface in
  bind_iface_filter (list_deny c name p) name iface

let undeny_on_iface c ~iface p =
  let name = iface_list_name iface in
  let c, still_has_denies = list_undeny c name p in
  if still_has_denies then c else unbind_iface_filter c name iface

let neighbor_list_name c addr =
  (* Reuse the neighbor's existing list; otherwise mint RejPfxs-<n>. *)
  match c.bgp with
  | Some b -> (
      match
        List.find_opt (fun n -> Ipv4.equal n.nb_addr addr) b.bgp_neighbors
      with
      | Some { nb_distribute_in = Some name; _ } -> name
      | Some _ | None ->
          let rec fresh k =
            let candidate = Printf.sprintf "RejPfxs-%d" k in
            if find_prefix_list c candidate = None then candidate else fresh (k + 1)
          in
          fresh 1)
  | None -> invalid_arg (c.hostname ^ ": deny_on_bgp_neighbor on non-BGP device")

let set_neighbor_filter c addr name =
  match c.bgp with
  | None -> c
  | Some b ->
      {
        c with
        bgp =
          Some
            {
              b with
              bgp_neighbors =
                List.map
                  (fun n ->
                    if Ipv4.equal n.nb_addr addr then { n with nb_distribute_in = name }
                    else n)
                  b.bgp_neighbors;
            };
      }

let deny_on_bgp_neighbor c ~neighbor p =
  let name = neighbor_list_name c neighbor in
  set_neighbor_filter (list_deny c name p) neighbor (Some name)

let undeny_on_bgp_neighbor c ~neighbor p =
  match c.bgp with
  | None -> c
  | Some b -> (
      match
        List.find_opt (fun n -> Ipv4.equal n.nb_addr neighbor) b.bgp_neighbors
      with
      | Some { nb_distribute_in = Some name; _ } ->
          let c, still_has_denies = list_undeny c name p in
          if still_has_denies then c else set_neighbor_filter c neighbor None
      | Some _ | None -> c)
