open Netcore
module Ast = Configlang.Ast
module Smap = Routing.Device.Smap
module Sset = Set.Make (String)

type outcome = {
  configs : Ast.config list;
  fake_hosts : (string * string) list;
  filters_added : int;
  filters_removed : int;
  engine : Routing.Engine.t;
}

let c_iterations = Telemetry.counter "anon.iterations"
let c_fake_hosts = Telemetry.counter "anon.fake_hosts"
let c_filters_added = Telemetry.counter "anon.filters_added"
let c_filters_removed = Telemetry.counter "anon.filters_removed"

(* A filter planned/applied by this algorithm, remembered for rollback. *)
type filter = {
  f_router : string;
  f_prefix : Prefix.t;
  f_attach : Attach.t;
}

(* The smallest "fh<k>" at or above [k] that names no input config. One
   monotonic counter threads through the whole [add_fake_hosts] run, so
   fake names never collide with each other either, and no search scans
   O(configs) from the start. Returns the name and the next counter. *)
let fresh_host_name by_name k =
  let rec search k =
    let candidate = Printf.sprintf "fh%d" k in
    if Smap.mem candidate by_name then search (k + 1) else (candidate, k + 1)
  in
  search k

let add_fake_hosts ~k_h configs (snap : Routing.Simulate.snapshot) =
  let alloc = Prefix.alloc_create ~avoid:(Edits.used_prefixes configs) () in
  let by_name =
    List.fold_left
      (fun m (c : Ast.config) -> Smap.add c.hostname c m)
      Smap.empty configs
  in
  (* (ingress edit, fake config, (fake, real)) per fake host, newest
     first. A host is never an ingress router, so each real host's config
     is read from the input. *)
  let rev_copies, _ =
    List.fold_left
      (fun acc (hname, _) ->
        let ingress, _ = List.hd (Smap.find hname snap.net.attachments) in
        let real_config = Smap.find hname by_name in
        let rec copies (rev, next) i =
          if i >= k_h then (rev, next)
          else begin
            let subnet = Prefix.alloc_fresh alloc ~len:24 in
            let gw = Prefix.host subnet 1 and ha = Prefix.host subnet 10 in
            let fake_name, next = fresh_host_name by_name next in
            (* Same configuration as the original host except hostname and
               addresses (§5.3). *)
            let fake_config =
              {
                real_config with
                Ast.hostname = fake_name;
                interfaces =
                  List.map
                    (fun (i : Ast.interface) ->
                      match i.if_address with
                      | Some (_, _) -> { i with if_address = Some (ha, 24) }
                      | None -> i)
                    real_config.interfaces;
                default_gateway = Some gw;
              }
            in
            let edit c =
              let name = Edits.fresh_iface_name c in
              let c =
                Edits.add_interface c ~name ~addr:gw ~plen:24
                  ~desc:("to-" ^ fake_name) ()
              in
              let c = Edits.add_igp_network c subnet in
              Edits.add_bgp_network c subnet
            in
            copies
              (((ingress, edit), fake_config, (fake_name, hname)) :: rev, next)
              (i + 1)
          end
        in
        copies acc 1)
      ([], 1)
      (Smap.bindings snap.net.hosts)
  in
  (* [update_all] keeps each ingress router's edit order; the fake host
     configs follow the input in creation order. *)
  let copies = List.rev rev_copies in
  ( Edits.update_all configs (List.map (fun (e, _, _) -> e) copies)
    @ List.map (fun (_, c, _) -> c) copies,
    List.map (fun (_, _, f) -> f) rev_copies )

(* Algorithm 2's walk table for one snapshot: for every router (row,
   indexed by the snapshot's router interner, which is in name order) and
   every walked destination (column), the next-hop router ids of the
   route the router's FIB matches, in [nexthops] order — [None] when
   there is no route or no next hop. The build is router-outer: each
   column is one {!Routing.Fib.probe_lpm} on the router's FIB, and the
   names of a body's next hops become ids once per body, shared by every
   column that matches it. Next hops are always routers (static next
   hops resolve through router addresses only). *)
let walk_table ?pool (snap : Routing.Simulate.snapshot) ids dests =
  let row r =
    match Smap.find_opt r snap.fibs with
    | None -> Array.map (fun _ -> None) dests
    | Some fib ->
        let hops =
          Routing.Fib.map_bodies
            (fun b ->
              lazy
                (match b.nexthops with
                | [] -> None
                | nhs ->
                    Some
                      (Array.of_list
                         (List.map
                            (fun (nh : Routing.Fib.nexthop) ->
                              Interner.find_exn ids nh.nh_router)
                            nhs))))
            fib
        in
        Array.map
          (fun d ->
            match Routing.Fib.probe_lpm fib d with
            | -1 -> None
            | i -> Lazy.force hops.(i))
          dests
  in
  List.init (Interner.length ids) (Interner.name ids)
  |> Pool.chunked_map ?pool row
  |> Array.of_list

(* Walk results as int codes: bit 0 "delivers", bit 1 "impure" — the
   result depended on the path taken to reach the router (it hit the
   cycle check), so it must not be memoized. *)
let delivers_bit = 1
let impure_bit = 2

(* Routers that can deliver traffic for column [j] of [table]: every
   ECMP branch must reach a router in [owners] (ids). One DFS per start
   router, in ascending id order, sharing one memo — on loop-free FIBs
   (the common case; IGP metrics strictly decrease along next hops) every
   router is explored once instead of once per ECMP branch per start
   router. Only pure results are memoized. [visiting] marks the DFS path
   and is cleared on exit. Owners are seeded as delivering. *)
let walk_column table ids owners j =
  let n = Array.length table in
  (* '\000' unknown, '\001' delivers, '\002' does not. *)
  let memo = Bytes.make n '\000' in
  List.iter (fun o -> Bytes.set memo o '\001') owners;
  let visiting = Bytes.make n '\000' in
  let rec delivers r =
    match Bytes.get memo r with
    | '\001' -> delivers_bit
    | '\002' -> 0
    | _ when Bytes.get visiting r = '\001' -> impure_bit
    | _ ->
        let res =
          match table.(r).(j) with
          | None -> 0
          | Some nhs ->
              Bytes.set visiting r '\001';
              (* Short-circuit fold: stop at the first branch that does
                 not deliver, carrying impurity from every branch taken. *)
              let acc = ref delivers_bit and i = ref 0 in
              while !acc land delivers_bit <> 0 && !i < Array.length nhs do
                let c = delivers nhs.(!i) in
                acc := c land delivers_bit lor ((!acc lor c) land impure_bit);
                incr i
              done;
              Bytes.set visiting r '\000';
              !acc
        in
        if res land impure_bit = 0 then
          Bytes.set memo r (if res land delivers_bit <> 0 then '\001' else '\002');
        res
  in
  let out = ref [] in
  for r = 0 to n - 1 do
    if delivers r land delivers_bit <> 0 then out := Interner.name ids r :: !out
  done;
  List.rev !out

(* Interface prefix -> owning routers, for the whole network: one pass
   over every interface instead of one full scan per walked prefix. *)
let owners_map (net : Routing.Device.network) =
  Smap.fold
    (fun rname (r : Routing.Device.router) acc ->
      List.fold_left
        (fun acc i ->
          let p = Routing.Device.ifc_prefix i in
          let cur =
            Option.value ~default:Sset.empty (Prefix.Map.find_opt p acc)
          in
          Prefix.Map.add p (Sset.add rname cur) acc)
        acc r.r_ifaces)
    net.routers Prefix.Map.empty

let reachable_routers ?pool (snap : Routing.Simulate.snapshot) fps =
  if fps = [] then []
  else
    let ids = Routing.Device.router_ids snap.net in
    let owners = owners_map snap.net in
    let table =
      walk_table ?pool snap ids
        (Array.of_list
           (List.map (fun fp -> Routing.Fib.dest (Prefix.host fp 10)) fps))
    in
    Pool.chunked_map ?pool
      (fun (j, fp) ->
        let owners =
          match Prefix.Map.find_opt fp owners with
          | None -> []
          | Some s -> List.map (Interner.find_exn ids) (Sset.elements s)
        in
        (fp, walk_column table ids owners j))
      (List.mapi (fun j fp -> (j, fp)) fps)

(* The routers [routers0] that the current reachable set [now] lost, in
   [routers0]'s order. Both lists must ascend by name: [walk_column]
   emits routers in interner order, which is ascending name order, so
   one merge finds them. *)
let lost_routers routers0 now =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | x :: a', y :: b' ->
        let c = String.compare x y in
        if c = 0 then go acc a' b' else if c < 0 then go (x :: acc) a' b else go acc a b'
  in
  go [] routers0 now

let anonymize ~rng ~k_h ~p ~engine configs =
  Telemetry.with_span "anon.anonymize" @@ fun () ->
  match Routing.Engine.apply_edit engine configs with
  | Error m -> Error ("route_anon: baseline simulation failed: " ^ m)
  | Ok eng0 -> (
      let snap0 = Routing.Engine.snapshot eng0 in
      let configs, fake_hosts =
        Telemetry.with_span "anon.fake_hosts_gen" @@ fun () ->
        add_fake_hosts ~k_h configs snap0
      in
      Telemetry.add c_fake_hosts (List.length fake_hosts);
      if fake_hosts = [] then
        Ok
          {
            configs;
            fake_hosts = [];
            filters_added = 0;
            filters_removed = 0;
            engine = eng0;
          }
      else
        match Routing.Engine.apply_edit eng0 configs with
        | Error m -> Error ("route_anon: fake-host simulation failed: " ^ m)
        | Ok eng ->
            let pool = Routing.Engine.pool eng in
            let snap = Routing.Engine.snapshot eng in
            let fake_prefixes =
              List.filter_map
                (fun (fh, _) ->
                  Option.map Routing.Device.host_prefix
                    (Smap.find_opt fh snap.net.hosts))
                fake_hosts
            in
            (* Baseline reachability per fake prefix (before any noise). *)
            let baseline =
              Telemetry.with_span "anon.baseline_walks" @@ fun () ->
              reachable_routers ?pool snap fake_prefixes
            in
            (* Plan filters: per (router, fake prefix, next hop), with
               probability p. The row scan stays in [host_routes] order —
               it drives the RNG draw sequence. *)
            let plan_row r hp nxts =
              List.filter_map
                (fun nxt ->
                  if Rng.bool rng ~p then
                    Option.map
                      (fun attach ->
                        { f_router = r; f_prefix = hp; f_attach = attach })
                      (Attach.point snap.net r nxt)
                  else None)
                nxts
            in
            let planned =
              Telemetry.with_span "anon.plan" @@ fun () ->
              (* Only fake-prefix rows ever draw from the RNG, and
                 [host_routes] orders its rows by (router, prefix) — so
                 walking the FIB map in name order against the sorted
                 fake prefixes visits exactly that subsequence, in the
                 same order, without materializing (or sorting) the full
                 real+fake relation. *)
              let fake_sorted = List.sort Prefix.compare fake_prefixes in
              List.concat_map
                (fun (r, fib) ->
                  (* Next-hop names by body, sorted on first read. *)
                  let names =
                    Routing.Fib.map_bodies
                      (fun b -> lazy (Routing.Fib.nexthop_names b.nexthops))
                      fib
                  in
                  List.concat_map
                    (fun hp ->
                      match Routing.Fib.body_index fib hp with
                      | -1 -> []
                      | i -> (
                          match Lazy.force names.(i) with
                          | [] -> []
                          | nxts -> plan_row r hp nxts))
                    fake_sorted)
                (Smap.bindings snap.fibs)
            in
            let configs =
              Edits.update_all configs
                (List.map
                   (fun f ->
                     (f.f_router, fun c -> Attach.deny_at c f.f_attach f.f_prefix))
                   planned)
            in
            (* Reachability repair: any fake prefix that lost a router must
               shed the filters on the routers where walks now dead-end.
               Each round walks [suspect] on one walk table of the new
               snapshot. The added filters are per-prefix denies on
               disjoint fake /24s, so rolling one back can only move its
               own prefix's routes: only rolled-back prefixes become the
               next round's suspects. *)
            let rec repair eng configs active removed guard suspect =
              Telemetry.incr c_iterations;
              match Routing.Engine.apply_edit eng configs with
              | Error m -> Error ("route_anon: repair simulation failed: " ^ m)
              | Ok eng ->
                  let now =
                    Telemetry.with_span "anon.repair_walks" @@ fun () ->
                    reachable_routers ?pool (Routing.Engine.snapshot eng)
                      (List.map fst suspect)
                  in
                  let broken =
                    List.filter_map
                      (fun ((fp, routers0), (_, now)) ->
                        let lost = lost_routers routers0 now in
                        if lost = [] then None else Some (fp, lost))
                      (List.combine suspect now)
                  in
                  if broken = [] then Ok (eng, configs, active, removed)
                  else if guard <= 0 then
                    Error "route_anon: reachability repair did not converge"
                  else begin
                    let lost_at =
                      List.fold_left
                        (fun m (fp, lost) -> Prefix.Map.add fp (Sset.of_list lost) m)
                        Prefix.Map.empty broken
                    in
                    let to_remove, keep =
                      List.partition
                        (fun f ->
                          match Prefix.Map.find_opt f.f_prefix lost_at with
                          | Some lost -> Sset.mem f.f_router lost
                          | None -> false)
                        active
                    in
                    let to_remove, keep =
                      if to_remove <> [] then (to_remove, keep)
                      else
                        List.partition
                          (fun f -> Prefix.Map.mem f.f_prefix lost_at)
                          active
                    in
                    if to_remove = [] then
                      Error
                        "route_anon: fake host unreachable with no filter to \
                         roll back"
                    else
                      let configs =
                        Edits.update_all configs
                          (List.map
                             (fun f ->
                               ( f.f_router,
                                 fun c -> Attach.undeny_at c f.f_attach f.f_prefix ))
                             to_remove)
                      in
                      let rolled_back =
                        Prefix.Set.of_list (List.map (fun f -> f.f_prefix) to_remove)
                      in
                      let suspect =
                        List.filter (fun (fp, _) -> Prefix.Set.mem fp rolled_back) baseline
                      in
                      repair eng configs keep
                        (removed + List.length to_remove)
                        (guard - 1) suspect
                  end
            in
            let repaired =
              repair eng configs planned 0 (List.length planned + 4) baseline
            in
            Result.map
              (fun (eng, configs, active, removed) ->
                Telemetry.add c_filters_added (List.length active);
                Telemetry.add c_filters_removed removed;
                {
                  configs;
                  fake_hosts = List.rev fake_hosts;
                  filters_added = List.length active;
                  filters_removed = removed;
                  engine = eng;
                })
              repaired)
