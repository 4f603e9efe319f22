open Netcore
open Ast

type line = { num : int; text : string }

exception Parse_error of int * string

let fail num fmt = Printf.ksprintf (fun m -> raise (Parse_error (num, m))) fmt

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let is_sub l = String.length l.text > 0 && l.text.[0] = ' '

let parse_ip num s =
  match Ipv4.of_string s with
  | Ok a -> a
  | Error m -> fail num "%s" m

let parse_int num s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail num "expected integer, got %S" s

let parse_prefix num s =
  match Prefix.of_string s with
  | Ok p -> p
  | Error m -> fail num "%s" m

(* [interface <name>] block *)
let parse_interface name sub =
  List.fold_left
    (fun i l ->
      match words l.text with
      | [ "ip"; "address"; addr; mask ] -> (
          let addr = parse_ip l.num addr in
          match Masks.len_of_netmask (parse_ip l.num mask) with
          | Some len -> { i with if_address = Some (addr, len) }
          | None -> fail l.num "non-contiguous netmask %s" mask)
      | [ "ip"; "ospf"; "cost"; c ] ->
          { i with if_cost = Some (parse_int l.num c) }
      | [ "delay"; d ] -> { i with if_delay = Some (parse_int l.num d) }
      | [ "ip"; "access-group"; name; "in" ] -> { i with if_acl_in = Some name }
      | [ "ip"; "access-group"; name; "out" ] -> { i with if_acl_out = Some name }
      | "description" :: rest ->
          { i with if_description = Some (String.concat " " rest) }
      | [ "shutdown" ] -> { i with if_shutdown = true }
      | _ -> { i with if_extra = i.if_extra @ [ String.trim l.text ] })
    (empty_interface name) sub

(* [router ospf <process>] block *)
let parse_ospf process sub =
  List.fold_left
    (fun o l ->
      match words l.text with
      | [ "network"; addr; wildcard; "area"; area ] -> (
          let addr = parse_ip l.num addr in
          match Masks.len_of_wildcard (parse_ip l.num wildcard) with
          | Some len ->
              let net = (Prefix.v addr len, parse_int l.num area) in
              { o with ospf_networks = o.ospf_networks @ [ net ] }
          | None -> fail l.num "non-contiguous wildcard %s" wildcard)
      | [ "distribute-list"; "prefix"; name; "in"; iface ] ->
          let d = { dl_list = name; dl_iface = iface } in
          { o with ospf_distribute_in = o.ospf_distribute_in @ [ d ] }
      | _ -> { o with ospf_extra = o.ospf_extra @ [ String.trim l.text ] })
    (empty_ospf process) sub

(* [router rip] block *)
let parse_rip sub =
  List.fold_left
    (fun r l ->
      match words l.text with
      | [ "network"; addr; wildcard ] -> (
          let addr = parse_ip l.num addr in
          match Masks.len_of_wildcard (parse_ip l.num wildcard) with
          | Some len ->
              { r with rip_networks = r.rip_networks @ [ Prefix.v addr len ] }
          | None -> fail l.num "non-contiguous wildcard %s" wildcard)
      | [ "distribute-list"; "prefix"; name; "in"; iface ] ->
          let d = { dl_list = name; dl_iface = iface } in
          { r with rip_distribute_in = r.rip_distribute_in @ [ d ] }
      | [ "version"; _ ] -> r
      | _ -> { r with rip_extra = r.rip_extra @ [ String.trim l.text ] })
    empty_rip sub

(* [router eigrp <asn>] block *)
let parse_eigrp asn sub =
  List.fold_left
    (fun e l ->
      match words l.text with
      | [ "network"; addr; wildcard ] -> (
          let addr = parse_ip l.num addr in
          match Masks.len_of_wildcard (parse_ip l.num wildcard) with
          | Some len ->
              { e with eigrp_networks = e.eigrp_networks @ [ Prefix.v addr len ] }
          | None -> fail l.num "non-contiguous wildcard %s" wildcard)
      | [ "distribute-list"; "prefix"; name; "in"; iface ] ->
          let d = { dl_list = name; dl_iface = iface } in
          { e with eigrp_distribute_in = e.eigrp_distribute_in @ [ d ] }
      | _ -> { e with eigrp_extra = e.eigrp_extra @ [ String.trim l.text ] })
    (empty_eigrp asn) sub

(* [ip access-list extended <name>] block. Endpoints are written as
   <addr> <wildcard> pairs or the keyword [any]. *)
let parse_acl num name sub =
  let endpoint num = function
    | "any" :: rest -> (None, rest)
    | addr :: wildcard :: rest -> (
        let addr = parse_ip num addr in
        match Masks.len_of_wildcard (parse_ip num wildcard) with
        | Some len -> (Some (Prefix.v addr len), rest)
        | None -> fail num "non-contiguous wildcard %s" wildcard)
    | _ -> fail num "malformed access-list endpoint"
  in
  let rules =
    List.map
      (fun l ->
        match words l.text with
        | action :: "ip" :: rest ->
            let acl_action =
              match action with
              | "permit" -> Permit
              | "deny" -> Deny
              | a -> fail l.num "expected permit/deny, got %S" a
            in
            let acl_src, rest = endpoint l.num rest in
            let acl_dst, rest = endpoint l.num rest in
            if rest <> [] then fail l.num "trailing tokens in access-list rule";
            { acl_action; acl_src; acl_dst }
        | _ -> fail l.num "malformed access-list rule")
      sub
  in
  ignore num;
  { acl_name = name; acl_rules = rules }

(* [router bgp <asn>] block. Neighbor attributes may appear before the
   neighbor's [remote-as] line, as in real Cisco configs, so neighbors are
   accumulated in a map first. *)
let parse_bgp asn sub =
  let update_neighbor b addr f =
    let found = ref false in
    let neighbors =
      List.map
        (fun n ->
          if Ipv4.equal n.nb_addr addr then begin
            found := true;
            f n
          end
          else n)
        b.bgp_neighbors
    in
    let neighbors =
      if !found then neighbors
      else
        neighbors
        @ [
            f
              {
                nb_addr = addr;
                nb_remote_as = -1;
                nb_distribute_in = None;
                nb_route_map_in = None;
              };
          ]
    in
    { b with bgp_neighbors = neighbors }
  in
  let b =
    List.fold_left
      (fun b l ->
        match words l.text with
        | [ "bgp"; "router-id"; id ] ->
            { b with bgp_router_id = Some (parse_ip l.num id) }
        | [ "network"; addr; "mask"; mask ] -> (
            let addr = parse_ip l.num addr in
            match Masks.len_of_netmask (parse_ip l.num mask) with
            | Some len ->
                { b with bgp_networks = b.bgp_networks @ [ Prefix.v addr len ] }
            | None -> fail l.num "non-contiguous netmask %s" mask)
        | [ "neighbor"; addr; "remote-as"; asn ] ->
            let addr = parse_ip l.num addr and asn = parse_int l.num asn in
            update_neighbor b addr (fun n -> { n with nb_remote_as = asn })
        | [ "neighbor"; addr; "distribute-list"; name; "in" ] ->
            let addr = parse_ip l.num addr in
            update_neighbor b addr (fun n -> { n with nb_distribute_in = Some name })
        | [ "neighbor"; addr; "route-map"; name; "in" ] ->
            let addr = parse_ip l.num addr in
            update_neighbor b addr (fun n -> { n with nb_route_map_in = Some name })
        | _ -> { b with bgp_extra = b.bgp_extra @ [ String.trim l.text ] })
      (empty_bgp asn) sub
  in
  (match List.find_opt (fun n -> n.nb_remote_as < 0) b.bgp_neighbors with
  | Some n ->
      let num = match sub with l :: _ -> l.num | [] -> 0 in
      fail num "bgp neighbor %s has no remote-as" (Ipv4.to_string n.nb_addr)
  | None -> ());
  b

let parse_prefix_list_line c num rest =
  match rest with
  | name :: "seq" :: seq :: action :: prefix :: tail ->
      let seq = parse_int num seq in
      let action =
        match action with
        | "permit" -> Permit
        | "deny" -> Deny
        | a -> fail num "expected permit/deny, got %S" a
      in
      let rule_prefix = parse_prefix num prefix in
      let le =
        match tail with
        | [] -> None
        | [ "le"; n ] -> Some (parse_int num n)
        | _ -> fail num "malformed prefix-list tail"
      in
      let rule = { seq; action; rule_prefix; le } in
      let found = ref false in
      let prefix_lists =
        List.map
          (fun pl ->
            if String.equal pl.pl_name name then begin
              found := true;
              { pl with pl_rules = pl.pl_rules @ [ rule ] }
            end
            else pl)
          c.prefix_lists
      in
      let prefix_lists =
        if !found then prefix_lists
        else prefix_lists @ [ { pl_name = name; pl_rules = [ rule ] } ]
      in
      { c with prefix_lists }
  | _ -> fail num "malformed ip prefix-list line"

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i text -> { num = i + 1; text })
    |> List.filter (fun l ->
           let t = String.trim l.text in
           t <> "" && t <> "!")
  in
  let rec take_block acc = function
    | l :: rest when is_sub l -> take_block (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec top c = function
    | [] -> c
    | l :: rest -> (
        match words l.text with
        | [ "hostname"; h ] -> top { c with hostname = h } rest
        | [ "interface"; name ] ->
            let sub, rest = take_block [] rest in
            let i = parse_interface name sub in
            top { c with interfaces = c.interfaces @ [ i ] } rest
        | [ "router"; "ospf"; process ] ->
            let sub, rest = take_block [] rest in
            let o = parse_ospf (parse_int l.num process) sub in
            top { c with ospf = Some o } rest
        | [ "router"; "rip" ] ->
            let sub, rest = take_block [] rest in
            top { c with rip = Some (parse_rip sub) } rest
        | [ "router"; "eigrp"; asn ] ->
            let sub, rest = take_block [] rest in
            let e = parse_eigrp (parse_int l.num asn) sub in
            top { c with eigrp = Some e } rest
        | [ "router"; "bgp"; asn ] ->
            let sub, rest = take_block [] rest in
            let b = parse_bgp (parse_int l.num asn) sub in
            top { c with bgp = Some b } rest
        | "ip" :: "prefix-list" :: tail ->
            top (parse_prefix_list_line c l.num tail) rest
        | [ "ip"; "access-list"; "extended"; name ] ->
            let sub, rest = take_block [] rest in
            let a = parse_acl l.num name sub in
            top { c with acls = c.acls @ [ a ] } rest
        | [ "route-map"; name; action; seq ] ->
            let rm_action =
              match action with
              | "permit" -> Permit
              | "deny" -> Deny
              | a -> fail l.num "expected permit/deny, got %S" a
            in
            let sub, rest = take_block [] rest in
            let clause =
              List.fold_left
                (fun cl sl ->
                  match words sl.text with
                  | [ "set"; "local-preference"; v ] ->
                      { cl with rm_set_local_pref = Some (parse_int sl.num v) }
                  | _ -> fail sl.num "unsupported route-map line")
                { rm_seq = parse_int l.num seq; rm_action; rm_set_local_pref = None }
                sub
            in
            let route_maps =
              if List.exists (fun rm -> rm.rm_name = name) c.route_maps then
                List.map
                  (fun rm ->
                    if rm.rm_name = name then
                      { rm with rm_clauses = rm.rm_clauses @ [ clause ] }
                    else rm)
                  c.route_maps
              else c.route_maps @ [ { rm_name = name; rm_clauses = [ clause ] } ]
            in
            top { c with route_maps } rest
        | [ "ip"; "route"; addr; mask; nh ] -> (
            let addr = parse_ip l.num addr in
            match Masks.len_of_netmask (parse_ip l.num mask) with
            | Some len ->
                let st =
                  { st_prefix = Prefix.v addr len; st_next_hop = parse_ip l.num nh }
                in
                top { c with statics = c.statics @ [ st ] } rest
            | None -> fail l.num "non-contiguous netmask %s" mask)
        | [ "ip"; "default-gateway"; gw ] ->
            top { c with default_gateway = Some (parse_ip l.num gw) } rest
        | _ ->
            (* Unknown top-level line: keep it, and also swallow any indented
               continuation block below it verbatim. *)
            let sub, rest = take_block [] rest in
            let raw = l.text :: List.map (fun s -> s.text) sub in
            top { c with extra = c.extra @ raw } rest)
  in
  try
    let c = top (empty_config no_hostname) lines in
    let kind =
      if
        c.default_gateway <> None && c.ospf = None && c.rip = None
        && c.eigrp = None && c.bgp = None && c.statics = []
      then Host
      else Router
    in
    Ok { c with kind }
  with Parse_error (num, msg) -> Error (Printf.sprintf "line %d: %s" num msg)

let parse_exn text =
  match parse text with Ok c -> c | Error m -> failwith m
