open Netcore
module Ast = Configlang.Ast
module Smap = Routing.Device.Smap

type t = {
  configs : Ast.config list;
  fake_routers : string list;
  fake_router_edges : (string * string) list;
}

(* Fake routers should blend into the network's naming scheme: reuse the
   longest all-alphabetic prefix shared by the most router names and
   continue with unused numbers. *)
let name_scheme routers =
  let stem name =
    match String.rindex_opt name '-' with
    | Some i -> String.sub name 0 (i + 1)
    | None ->
        let rec digits i =
          if i > 0 && name.[i - 1] >= '0' && name.[i - 1] <= '9' then digits (i - 1)
          else i
        in
        String.sub name 0 (digits (String.length name))
  in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let s = stem r in
      if s <> "" then
        Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    routers;
  let best =
    Hashtbl.fold
      (fun s n acc ->
        match acc with Some (_, m) when m >= n -> acc | _ -> Some (s, n))
      counts None
  in
  match best with Some (s, _) -> s | None -> "node"

let fresh_names ~count existing scheme =
  let taken = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace taken n ()) existing;
  let rec collect acc k remaining =
    if remaining = 0 then List.rev acc
    else
      let candidate = Printf.sprintf "%s%d" scheme k in
      if Hashtbl.mem taken candidate then collect acc (k + 1) remaining
      else begin
        Hashtbl.replace taken candidate ();
        collect (candidate :: acc) (k + 1) (remaining - 1)
      end
  in
  collect [] 1 count

let add ~rng ~count ~orig:(snap : Routing.Simulate.snapshot) configs =
  let routers = List.map fst (Smap.bindings snap.net.routers) in
  let has_bgp =
    Smap.exists (fun _ (r : Routing.Device.router) -> r.r_bgp <> None) snap.net.routers
  in
  if has_bgp then
    Error "node_anon: fake routers in BGP networks are not supported"
  else if List.length routers < 2 then
    Error "node_anon: need at least two routers to anchor fake routers"
  else begin
    let alloc = Prefix.alloc_create ~avoid:(Edits.used_prefixes configs) () in
    let scheme = name_scheme routers in
    let names = fresh_names ~count routers scheme in
    let igp_network = Prefix.of_string_exn "10.0.0.0/8" in
    let min_cost = Routing.Ospf.min_cost snap.net in
    (* Clone an anchor's management boilerplate, rewriting any occurrence
       of the anchor's name (e.g. in SNMP community strings) so the fake
       router does not reference its donor. *)
    let template_extras anchor fname =
      let substitute line =
        let alen = String.length anchor in
        let b = Buffer.create (String.length line) in
        let rec go i =
          if i >= String.length line then Buffer.contents b
          else if
            i + alen <= String.length line && String.sub line i alen = anchor
          then begin
            Buffer.add_string b fname;
            go (i + alen)
          end
          else begin
            Buffer.add_char b line.[i];
            go (i + 1)
          end
        in
        go 0
      in
      match List.find_opt (fun (c : Ast.config) -> c.hostname = anchor) configs with
      | Some c -> List.map substitute c.extra
      | None -> []
    in
    let result =
      List.fold_left
        (fun (configs, edges) fname ->
          let n_anchors = 2 + Rng.int rng 2 in
          let anchors =
            List.filteri (fun i _ -> i < n_anchors) (Rng.shuffle rng routers)
          in
          (* cost(a, f): strictly longer than any anchor-to-anchor shortest
             path through f, so the original data plane is untouched. *)
          let cost_of a =
            let d = min_cost a in
            List.fold_left
              (fun acc b -> match d b with Some c -> max acc c | None -> acc)
              10
              (List.filter (fun b -> b <> a) anchors)
          in
          let host_subnet = Prefix.alloc_fresh alloc ~len:24 in
          let fake_router =
            {
              (Ast.empty_config fname) with
              Ast.kind = Ast.Router;
              interfaces =
                [
                  {
                    (Ast.empty_interface "Eth0") with
                    Ast.if_address = Some (Prefix.host host_subnet 1, 24);
                    if_description = Some ("to-" ^ fname ^ "-lan");
                  };
                ];
              extra = template_extras (List.hd anchors) fname;
            }
          in
          (* Mirror the IGP of the anchors: CiscoLite networks are either
             all-OSPF or all-RIP per our generators. *)
          let anchor_runs_ospf =
            match Smap.find_opt (List.hd anchors) snap.net.routers with
            | Some r -> r.Routing.Device.r_ospf <> None
            | None -> true
          in
          let fake_router =
            if anchor_runs_ospf then
              {
                fake_router with
                Ast.ospf =
                  Some { (Ast.empty_ospf 1) with ospf_networks = [ (igp_network, 0) ] };
              }
            else
              { fake_router with Ast.rip = Some { Ast.empty_rip with rip_networks = [ igp_network ] } }
          in
          let fake_router = Edits.add_igp_network fake_router host_subnet in
          let fake_host =
            {
              (Ast.empty_config (fname ^ "-h1")) with
              Ast.kind = Ast.Host;
              interfaces =
                [
                  {
                    (Ast.empty_interface "eth0") with
                    Ast.if_address = Some (Prefix.host host_subnet 10, 24);
                  };
                ];
              default_gateway = Some (Prefix.host host_subnet 1);
            }
          in
          let configs, fake_router, edges =
            List.fold_left
              (fun (configs, fake_router, edges) anchor ->
                let subnet = Prefix.alloc_fresh alloc ~len:30 in
                let cost = cost_of anchor in
                let configs =
                  Edits.update configs anchor (fun c ->
                      let name = Edits.fresh_iface_name c in
                      let c =
                        Edits.add_interface c ~name ~addr:(Prefix.host subnet 1)
                          ~plen:30 ~cost ~desc:("to-" ^ fname) ()
                      in
                      Edits.add_igp_network c subnet)
                in
                let fr_iface = Edits.fresh_iface_name fake_router in
                let fake_router =
                  Edits.add_interface fake_router ~name:fr_iface
                    ~addr:(Prefix.host subnet 2) ~plen:30 ~cost
                    ~desc:("to-" ^ anchor) ()
                in
                let fake_router = Edits.add_igp_network fake_router subnet in
                (configs, fake_router, (anchor, fname) :: edges))
              (configs, fake_router, edges)
              anchors
          in
          (configs @ [ fake_router; fake_host ], edges))
        (configs, []) names
    in
    let configs, edges = result in
    Ok { configs; fake_routers = names; fake_router_edges = List.rev edges }
  end
