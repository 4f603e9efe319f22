open Netcore
open Ast

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let bprintf = Printf.bprintf

let quote s = "\"" ^ s ^ "\""

let print_block b indent name body =
  let pad = String.make indent ' ' in
  bprintf b "%s%s {\n" pad name;
  body (indent + 4);
  bprintf b "%s}\n" pad

let print_stmt b indent fmt =
  let pad = String.make indent ' ' in
  bprintf b "%s" pad;
  Printf.ksprintf (fun s -> bprintf b "%s;\n" s) fmt

let action_word = function Permit -> "permit" | Deny -> "deny"

let endpoint_word = function
  | None -> "any"
  | Some p -> Prefix.to_string p

let to_string (c : config) =
  let b = Buffer.create 2048 in
  print_block b 0 "system" (fun i ->
      print_stmt b i "host-name %s" c.hostname;
      match c.default_gateway with
      | Some gw -> print_stmt b i "default-gateway %s" (Ipv4.to_string gw)
      | None -> ());
  if c.interfaces <> [] then
    print_block b 0 "interfaces" (fun i ->
        List.iter
          (fun ifc ->
            print_block b i ifc.if_name (fun i ->
                (match ifc.if_description with
                | Some d -> print_stmt b i "description %s" (quote d)
                | None -> ());
                (match ifc.if_address with
                | Some (a, len) ->
                    print_stmt b i "address %s/%d" (Ipv4.to_string a) len
                | None -> ());
                (match ifc.if_cost with
                | Some cost -> print_stmt b i "metric %d" cost
                | None -> ());
                (match ifc.if_delay with
                | Some d -> print_stmt b i "delay %d" d
                | None -> ());
                (match ifc.if_acl_in with
                | Some a -> print_stmt b i "filter input %s" a
                | None -> ());
                (match ifc.if_acl_out with
                | Some a -> print_stmt b i "filter output %s" a
                | None -> ());
                if ifc.if_shutdown then print_stmt b i "disable";
                List.iter (fun e -> print_stmt b i "legacy %s" (quote e)) ifc.if_extra))
          c.interfaces);
  let protocols = c.ospf <> None || c.rip <> None || c.eigrp <> None || c.bgp <> None in
  if protocols then
    print_block b 0 "protocols" (fun i ->
        (match c.ospf with
        | Some o ->
            print_block b i (Printf.sprintf "ospf %d" o.ospf_process) (fun i ->
                List.iter
                  (fun (p, area) ->
                    print_stmt b i "network %s area %d" (Prefix.to_string p) area)
                  o.ospf_networks;
                List.iter
                  (fun d ->
                    print_stmt b i "import %s interface %s" d.dl_list d.dl_iface)
                  o.ospf_distribute_in;
                List.iter (fun e -> print_stmt b i "legacy %s" (quote e)) o.ospf_extra)
        | None -> ());
        (match c.rip with
        | Some r ->
            print_block b i "rip" (fun i ->
                List.iter
                  (fun p -> print_stmt b i "network %s" (Prefix.to_string p))
                  r.rip_networks;
                List.iter
                  (fun d ->
                    print_stmt b i "import %s interface %s" d.dl_list d.dl_iface)
                  r.rip_distribute_in;
                List.iter (fun e -> print_stmt b i "legacy %s" (quote e)) r.rip_extra)
        | None -> ());
        (match c.eigrp with
        | Some e ->
            print_block b i (Printf.sprintf "eigrp %d" e.eigrp_as) (fun i ->
                List.iter
                  (fun p -> print_stmt b i "network %s" (Prefix.to_string p))
                  e.eigrp_networks;
                List.iter
                  (fun d ->
                    print_stmt b i "import %s interface %s" d.dl_list d.dl_iface)
                  e.eigrp_distribute_in;
                List.iter (fun x -> print_stmt b i "legacy %s" (quote x)) e.eigrp_extra)
        | None -> ());
        match c.bgp with
        | Some g ->
            print_block b i "bgp" (fun i ->
                print_stmt b i "local-as %d" g.bgp_as;
                (match g.bgp_router_id with
                | Some id -> print_stmt b i "router-id %s" (Ipv4.to_string id)
                | None -> ());
                List.iter
                  (fun p -> print_stmt b i "network %s" (Prefix.to_string p))
                  g.bgp_networks;
                List.iter
                  (fun n ->
                    print_block b i
                      (Printf.sprintf "neighbor %s" (Ipv4.to_string n.nb_addr))
                      (fun i ->
                        print_stmt b i "peer-as %d" n.nb_remote_as;
                        (match n.nb_distribute_in with
                        | Some f -> print_stmt b i "import-list %s" f
                        | None -> ());
                        match n.nb_route_map_in with
                        | Some f -> print_stmt b i "import-policy %s" f
                        | None -> ()))
                  g.bgp_neighbors;
                List.iter (fun e -> print_stmt b i "legacy %s" (quote e)) g.bgp_extra)
        | None -> ());
  if c.prefix_lists <> [] || c.route_maps <> [] then
    print_block b 0 "policy-options" (fun i ->
        List.iter
          (fun pl ->
            print_block b i (Printf.sprintf "prefix-list %s" pl.pl_name) (fun i ->
                List.iter
                  (fun r ->
                    match r.le with
                    | Some le ->
                        print_stmt b i "seq %d %s %s le %d" r.seq
                          (action_word r.action)
                          (Prefix.to_string r.rule_prefix)
                          le
                    | None ->
                        print_stmt b i "seq %d %s %s" r.seq (action_word r.action)
                          (Prefix.to_string r.rule_prefix))
                  pl.pl_rules))
          c.prefix_lists;
        List.iter
          (fun rm ->
            print_block b i
              (Printf.sprintf "policy-statement %s" rm.rm_name)
              (fun i ->
                List.iter
                  (fun cl ->
                    print_block b i
                      (Printf.sprintf "term %d %s" cl.rm_seq (action_word cl.rm_action))
                      (fun i ->
                        match cl.rm_set_local_pref with
                        | Some v -> print_stmt b i "local-preference %d" v
                        | None -> ()))
                  rm.rm_clauses))
          c.route_maps);
  if c.acls <> [] then
    print_block b 0 "firewall" (fun i ->
        List.iter
          (fun a ->
            print_block b i (Printf.sprintf "filter %s" a.acl_name) (fun i ->
                List.iter
                  (fun r ->
                    print_stmt b i "%s from %s to %s" (action_word r.acl_action)
                      (endpoint_word r.acl_src) (endpoint_word r.acl_dst))
                  a.acl_rules))
          c.acls);
  if c.statics <> [] then
    print_block b 0 "routing-options" (fun i ->
        print_block b i "static" (fun i ->
            List.iter
              (fun st ->
                print_stmt b i "route %s next-hop %s"
                  (Prefix.to_string st.st_prefix)
                  (Ipv4.to_string st.st_next_hop))
              c.statics));
  if c.extra <> [] then
    print_block b 0 "legacy-extra" (fun i ->
        List.iter (fun e -> print_stmt b i "line %s" (quote e)) c.extra);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type token = Word of string | Lbrace | Rbrace | Semi

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let tokenize text =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let buf = Buffer.create 32 in
  let flush_word () =
    if Buffer.length buf > 0 then begin
      tokens := (Word (Buffer.contents buf), !line) :: !tokens;
      Buffer.clear buf
    end
  in
  let rec go i =
    if i >= n then flush_word ()
    else
      match text.[i] with
      | '\n' ->
          flush_word ();
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' ->
          flush_word ();
          go (i + 1)
      | '#' ->
          flush_word ();
          let rec skip i = if i < n && text.[i] <> '\n' then skip (i + 1) else i in
          go (skip i)
      | '{' ->
          flush_word ();
          tokens := (Lbrace, !line) :: !tokens;
          go (i + 1)
      | '}' ->
          flush_word ();
          tokens := (Rbrace, !line) :: !tokens;
          go (i + 1)
      | ';' ->
          flush_word ();
          tokens := (Semi, !line) :: !tokens;
          go (i + 1)
      | '"' ->
          flush_word ();
          let rec scan j =
            if j >= n then fail !line "unterminated string"
            else if text.[j] = '"' then j
            else scan (j + 1)
          in
          let close = scan (i + 1) in
          tokens := (Word (String.sub text (i + 1) (close - i - 1)), !line) :: !tokens;
          go (close + 1)
      | ch ->
          Buffer.add_char buf ch;
          go (i + 1)
  in
  go 0;
  List.rev !tokens

(* Generic statement tree. *)
type node = Stmt of int * string list | Block of int * string list * node list

let parse_tree tokens =
  (* returns nodes up to an unmatched Rbrace or end *)
  let rec nodes acc words wline = function
    | (Word w, l) :: rest ->
        let wline = if words = [] then l else wline in
        nodes acc (w :: words) wline rest
    | (Semi, l) :: rest ->
        if words = [] then fail l "empty statement";
        nodes (Stmt (wline, List.rev words) :: acc) [] 0 rest
    | (Lbrace, l) :: rest ->
        if words = [] then fail l "block without a name";
        let children, rest = block_body l rest in
        nodes (Block (wline, List.rev words, children) :: acc) [] 0 rest
    | ((Rbrace, _) :: _ | []) as rest ->
        if words <> [] then
          fail
            (match rest with (_, l') :: _ -> l' | [] -> wline)
            "dangling words without ';'";
        (List.rev acc, rest)
  and block_body open_line rest =
    let children, rest = nodes [] [] 0 rest in
    match rest with
    | (Rbrace, _) :: rest -> (children, rest)
    | _ -> fail open_line "unclosed block"
  in
  let top, rest = nodes [] [] 0 tokens in
  match rest with
  | (Rbrace, l) :: _ -> fail l "unmatched '}'"
  | _ -> top

let prefix_of line s =
  match Prefix.of_string s with Ok p -> p | Error m -> fail line "%s" m

let addr_of line s =
  match Ipv4.of_string s with Ok a -> a | Error m -> fail line "%s" m

let int_of line s =
  match int_of_string_opt s with Some n -> n | None -> fail line "expected integer, got %S" s

let action_of line = function
  | "permit" -> Permit
  | "deny" -> Deny
  | a -> fail line "expected permit/deny, got %S" a

let interpret_interface line name children =
  List.fold_left
    (fun ifc node ->
      match node with
      | Stmt (_, [ "description"; d ]) -> { ifc with if_description = Some d }
      | Stmt (l, [ "address"; cidr ]) ->
          let p = prefix_of l cidr in
          (* the statement carries the host address, not the canonical
             network, so re-split by hand *)
          let addr, len =
            match String.index_opt cidr '/' with
            | Some i ->
                ( addr_of l (String.sub cidr 0 i),
                  int_of l (String.sub cidr (i + 1) (String.length cidr - i - 1)) )
            | None -> (Prefix.network p, 32)
          in
          { ifc with if_address = Some (addr, len) }
      | Stmt (l, [ "metric"; m ]) -> { ifc with if_cost = Some (int_of l m) }
      | Stmt (l, [ "delay"; d ]) -> { ifc with if_delay = Some (int_of l d) }
      | Stmt (_, [ "filter"; "input"; a ]) -> { ifc with if_acl_in = Some a }
      | Stmt (_, [ "filter"; "output"; a ]) -> { ifc with if_acl_out = Some a }
      | Stmt (_, [ "disable" ]) -> { ifc with if_shutdown = true }
      | Stmt (_, [ "legacy"; e ]) -> { ifc with if_extra = ifc.if_extra @ [ e ] }
      | Stmt (l, _) | Block (l, _, _) ->
          fail l "unsupported statement under interface %s" name)
    (empty_interface name) children
  |> fun i ->
  ignore line;
  i

let distribute_of l = function
  | [ "import"; name; "interface"; iface ] -> Some { dl_list = name; dl_iface = iface }
  | _ -> ignore l; None

let interpret_protocols c children =
  List.fold_left
    (fun c node ->
      match node with
      | Block (l, [ "ospf"; process ], body) ->
          let o =
            List.fold_left
              (fun o node ->
                match node with
                | Stmt (l, [ "network"; p; "area"; area ]) ->
                    {
                      o with
                      ospf_networks =
                        o.ospf_networks @ [ (prefix_of l p, int_of l area) ];
                    }
                | Stmt (l, ([ "import"; _; "interface"; _ ] as w)) ->
                    { o with ospf_distribute_in = o.ospf_distribute_in
                             @ Option.to_list (distribute_of l w) }
                | Stmt (_, [ "legacy"; e ]) -> { o with ospf_extra = o.ospf_extra @ [ e ] }
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported ospf statement")
              (empty_ospf (int_of l process))
              body
          in
          { c with ospf = Some o }
      | Block (_, [ "rip" ], body) ->
          let r =
            List.fold_left
              (fun r node ->
                match node with
                | Stmt (l, [ "network"; p ]) ->
                    { r with rip_networks = r.rip_networks @ [ prefix_of l p ] }
                | Stmt (l, ([ "import"; _; "interface"; _ ] as w)) ->
                    { r with rip_distribute_in = r.rip_distribute_in
                             @ Option.to_list (distribute_of l w) }
                | Stmt (_, [ "legacy"; e ]) -> { r with rip_extra = r.rip_extra @ [ e ] }
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported rip statement")
              empty_rip body
          in
          { c with rip = Some r }
      | Block (l, [ "eigrp"; asn ], body) ->
          let e =
            List.fold_left
              (fun e node ->
                match node with
                | Stmt (l, [ "network"; p ]) ->
                    { e with eigrp_networks = e.eigrp_networks @ [ prefix_of l p ] }
                | Stmt (l, ([ "import"; _; "interface"; _ ] as w)) ->
                    { e with eigrp_distribute_in = e.eigrp_distribute_in
                             @ Option.to_list (distribute_of l w) }
                | Stmt (_, [ "legacy"; x ]) ->
                    { e with eigrp_extra = e.eigrp_extra @ [ x ] }
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported eigrp statement")
              (empty_eigrp (int_of l asn))
              body
          in
          { c with eigrp = Some e }
      | Block (l, [ "bgp" ], body) ->
          let g =
            List.fold_left
              (fun g node ->
                match node with
                | Stmt (l, [ "local-as"; asn ]) -> { g with bgp_as = int_of l asn }
                | Stmt (l, [ "router-id"; id ]) ->
                    { g with bgp_router_id = Some (addr_of l id) }
                | Stmt (l, [ "network"; p ]) ->
                    { g with bgp_networks = g.bgp_networks @ [ prefix_of l p ] }
                | Block (l, [ "neighbor"; addr ], nbody) ->
                    let n =
                      List.fold_left
                        (fun n node ->
                          match node with
                          | Stmt (l, [ "peer-as"; asn ]) ->
                              { n with nb_remote_as = int_of l asn }
                          | Stmt (_, [ "import-list"; f ]) ->
                              { n with nb_distribute_in = Some f }
                          | Stmt (_, [ "import-policy"; f ]) ->
                              { n with nb_route_map_in = Some f }
                          | Stmt (l, _) | Block (l, _, _) ->
                              fail l "unsupported neighbor statement")
                        {
                          nb_addr = addr_of l addr;
                          nb_remote_as = -1;
                          nb_distribute_in = None;
                          nb_route_map_in = None;
                        }
                        nbody
                    in
                    if n.nb_remote_as < 0 then fail l "neighbor without peer-as";
                    { g with bgp_neighbors = g.bgp_neighbors @ [ n ] }
                | Stmt (_, [ "legacy"; e ]) -> { g with bgp_extra = g.bgp_extra @ [ e ] }
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported bgp statement")
              (empty_bgp 0) body
          in
          if g.bgp_as = 0 then fail l "bgp without local-as";
          { c with bgp = Some g }
      | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported protocol")
    c children

let interpret_policy_options c children =
  List.fold_left
    (fun c node ->
      match node with
      | Block (_, [ "prefix-list"; name ], body) ->
          let rules =
            List.map
              (fun node ->
                match node with
                | Stmt (l, [ "seq"; seq; action; p ]) ->
                    {
                      seq = int_of l seq;
                      action = action_of l action;
                      rule_prefix = prefix_of l p;
                      le = None;
                    }
                | Stmt (l, [ "seq"; seq; action; p; "le"; le ]) ->
                    {
                      seq = int_of l seq;
                      action = action_of l action;
                      rule_prefix = prefix_of l p;
                      le = Some (int_of l le);
                    }
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported prefix-list rule")
              body
          in
          { c with prefix_lists = c.prefix_lists @ [ { pl_name = name; pl_rules = rules } ] }
      | Block (_, [ "policy-statement"; name ], body) ->
          let clauses =
            List.map
              (fun node ->
                match node with
                | Block (l, [ "term"; seq; action ], tbody) ->
                    List.fold_left
                      (fun cl node ->
                        match node with
                        | Stmt (l, [ "local-preference"; v ]) ->
                            { cl with rm_set_local_pref = Some (int_of l v) }
                        | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported term")
                      {
                        rm_seq = int_of l seq;
                        rm_action = action_of l action;
                        rm_set_local_pref = None;
                      }
                      tbody
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported policy statement")
              body
          in
          {
            c with
            route_maps = c.route_maps @ [ { rm_name = name; rm_clauses = clauses } ];
          }
      | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported policy-options entry")
    c children

let interpret_firewall c children =
  List.fold_left
    (fun c node ->
      match node with
      | Block (_, [ "filter"; name ], body) ->
          let rules =
            List.map
              (fun node ->
                match node with
                | Stmt (l, [ action; "from"; src; "to"; dst ]) ->
                    let ep = function
                      | "any" -> None
                      | s -> Some (prefix_of l s)
                    in
                    { acl_action = action_of l action; acl_src = ep src; acl_dst = ep dst }
                | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported filter rule")
              body
          in
          { c with acls = c.acls @ [ { acl_name = name; acl_rules = rules } ] }
      | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported firewall entry")
    c children

let parse text =
  try
    let tree = parse_tree (tokenize text) in
    let c =
      List.fold_left
        (fun c node ->
          match node with
          | Block (_, [ "system" ], body) ->
              List.fold_left
                (fun c node ->
                  match node with
                  | Stmt (_, [ "host-name"; h ]) -> { c with hostname = h }
                  | Stmt (l, [ "default-gateway"; gw ]) ->
                      { c with default_gateway = Some (addr_of l gw) }
                  | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported system entry")
                c body
          | Block (_, [ "interfaces" ], body) ->
              List.fold_left
                (fun c node ->
                  match node with
                  | Block (l, [ name ], children) ->
                      {
                        c with
                        interfaces =
                          c.interfaces @ [ interpret_interface l name children ];
                      }
                  | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported interface entry")
                c body
          | Block (_, [ "protocols" ], body) -> interpret_protocols c body
          | Block (_, [ "policy-options" ], body) -> interpret_policy_options c body
          | Block (_, [ "firewall" ], body) -> interpret_firewall c body
          | Block (_, [ "routing-options" ], body) ->
              List.fold_left
                (fun c node ->
                  match node with
                  | Block (_, [ "static" ], sbody) ->
                      List.fold_left
                        (fun c node ->
                          match node with
                          | Stmt (l, [ "route"; p; "next-hop"; nh ]) ->
                              {
                                c with
                                statics =
                                  c.statics
                                  @ [
                                      {
                                        st_prefix = prefix_of l p;
                                        st_next_hop = addr_of l nh;
                                      };
                                    ];
                              }
                          | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported route")
                        c sbody
                  | Stmt (l, _) | Block (l, _, _) ->
                      fail l "unsupported routing-options entry")
                c body
          | Block (_, [ "legacy-extra" ], body) ->
              List.fold_left
                (fun c node ->
                  match node with
                  | Stmt (_, [ "line"; e ]) -> { c with extra = c.extra @ [ e ] }
                  | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported legacy entry")
                c body
          | Stmt (l, _) | Block (l, _, _) -> fail l "unsupported top-level entry")
        (empty_config no_hostname) tree
    in
    let kind =
      if
        c.default_gateway <> None && c.ospf = None && c.rip = None && c.eigrp = None
        && c.bgp = None && c.statics = []
      then Host
      else Router
    in
    Ok { c with kind }
  with Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)

let parse_exn text =
  match parse text with Ok c -> c | Error m -> failwith m

let looks_like_junos text =
  let lines = String.split_on_char '\n' text in
  let rec first = function
    | [] -> false
    | l :: rest ->
        let t = String.trim l in
        if t = "" || (String.length t > 0 && t.[0] = '#') then first rest
        else
          (* a block opener ends with '{' *)
          String.length t > 0 && t.[String.length t - 1] = '{'
  in
  first lines
