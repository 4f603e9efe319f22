open Netcore
module Smap = Device.Smap
module Ast = Configlang.Ast

let all _ = true

let c_dijkstras = Telemetry.counter "ospf.dijkstras"
let c_sssp_saved = Telemetry.counter "ospf.sssp_saved"

(* Directed adjacencies usable by OSPF: both interface ends enabled and
   both routers in scope. *)
let ospf_adjs ?(scope = all) (net : Device.network) =
  Smap.filter_map
    (fun name adjs ->
      if not (scope name) then None
      else
        match Smap.find_opt name net.routers with
        | None -> None
        | Some r when r.Device.r_ospf = None -> None
        | Some r ->
            Some
              (List.filter
                 (fun (a : Device.adj) ->
                   scope a.a_to
                   && Device.ospf_enabled r a.a_out_iface
                   &&
                   match Smap.find_opt a.a_to net.routers with
                   | Some peer -> Device.ospf_enabled peer a.a_in_iface
                   | None -> false)
                 adjs))
    net.adjs

(* ---- Dijkstra kernel ----

   The scoped subgraph re-expressed on dense int ids: vertices are the
   keys of an [ospf_adjs] map (every scoped OSPF router — adjacency
   targets are always keys too, since [ospf_adjs] only keeps an edge
   when its peer is a scoped OSPF router), edges a CSR built once per
   [prepare] and shared by every per-prefix Dijkstra, including the
   parallel ones: after construction the interner and CSR are only ever
   read. *)

let scoped_interner adjs =
  let it = Interner.create ~capacity:(Smap.cardinal adjs + 1) () in
  Smap.iter (fun name _ -> ignore (Interner.intern it name)) adjs;
  it

let scoped_csr ~rev it adjs =
  let edges =
    Smap.fold
      (fun name outs acc ->
        let u = Interner.intern it name in
        List.fold_left
          (fun acc (a : Device.adj) ->
            let v = Interner.intern it a.a_to in
            let c = a.a_out_iface.ifc_cost in
            (if rev then (v, u, c) else (u, v, c)) :: acc)
          acc outs)
      adjs []
  in
  Compiled.Csr.of_edges ~n:(Interner.length it) edges

(* Fold a distance array back into the canonical [Smap] the callers (and
   the disk-cached [state] type) expect, whatever order the kernel
   visited the vertices in. *)
let distances_of_array it dist =
  let out = ref Smap.empty in
  for i = 0 to Interner.length it - 1 do
    if dist.(i) < max_int then out := Smap.add (Interner.name it i) dist.(i) !out
  done;
  !out

(* Multi-source distances as a canonical [Smap]. A seed outside the
   scoped graph has no incident edges, so its distance is its least seed
   cost. *)
let distances_csr it csr seeds =
  let ids, extras =
    List.partition_map
      (fun (r, c) ->
        match Interner.find it r with
        | Some v -> Either.Left (v, c)
        | None -> Either.Right (r, c))
      seeds
  in
  let out = distances_of_array it (Compiled.Csr.dijkstra csr ~seeds:ids) in
  List.fold_left
    (fun out (r, c) ->
      Smap.update r
        (function Some d -> Some (min d c) | None -> Some c)
        out)
    out extras

(* ---- sharded SPF with per-advertiser dedup ----

   The per-prefix reverse Dijkstras of a scope overlap heavily: many
   prefixes are advertised by the same routers (every router contributes
   one prefix per OSPF interface). The multi-source distance field of a
   prefix seeded at [(s1,c1); ...; (sk,ck)] is exactly the pointwise
   minimum over i of [c_i + dist(s_i, -)] — so one single-source Dijkstra
   per *distinct advertising router* suffices, and each per-prefix field
   is a cheap min-combine of the shared per-advertiser fields. Integer
   arithmetic throughout: the combine is exact, not an approximation.

   Both the per-advertiser Dijkstras and the per-prefix combines are
   sharded across the pool in contiguous chunks ([Pool.chunked_map]),
   whose boundaries cannot affect results. *)

(* Distinct advertising router ids, in first-appearance order over the
   ascending-prefix bindings. *)
let distinct_seed_ids it bindings =
  let seen = Array.make (max 1 (Interner.length it)) false in
  let order = ref [] in
  List.iter
    (fun (_, seeds) ->
      List.iter
        (fun (r, _) ->
          match Interner.find it r with
          | Some v when not seen.(v) ->
              seen.(v) <- true;
              order := v :: !order
          | Some _ | None -> ())
        seeds)
    bindings;
  List.rev !order

(* Per-prefix distance arrays over the interner ids (non-interned seeds
   are not represented — [materialize_dists] folds them back in). Uses
   the per-advertiser dedup unless the scope has more distinct
   advertisers than prefixes, where per-prefix multi-source runs are
   strictly fewer Dijkstras. *)
let dist_arrays ?pool it rcsr bindings =
  let seed_ids = distinct_seed_ids it bindings in
  if List.length seed_ids <= List.length bindings then begin
    let dist_of = Array.make (max 1 (Interner.length it)) [||] in
    List.iter
      (fun (v, d) -> dist_of.(v) <- d)
      (Pool.chunked_map ?pool
         (fun v ->
           Telemetry.incr c_dijkstras;
           (v, Compiled.Csr.dijkstra rcsr ~seeds:[ (v, 0) ]))
         seed_ids);
    Telemetry.add c_sssp_saved
      (max 0 (List.length bindings - List.length seed_ids));
    let n = Interner.length it in
    Pool.chunked_map ?pool
      (fun (p, seeds) ->
        let dist = Array.make (max 1 n) max_int in
        List.iter
          (fun (r, c) ->
            match Interner.find it r with
            | None -> ()
            | Some v ->
                let dv = dist_of.(v) in
                for i = 0 to n - 1 do
                  let d = Array.unsafe_get dv i in
                  if d < max_int && d + c < Array.unsafe_get dist i then
                    Array.unsafe_set dist i (d + c)
                done)
          seeds;
        (p, seeds, dist))
      bindings
  end
  else
    Pool.chunked_map ?pool
      (fun (p, seeds) ->
        Telemetry.incr c_dijkstras;
        let ids =
          List.filter_map
            (fun (r, c) -> Option.map (fun v -> (v, c)) (Interner.find it r))
            seeds
        in
        (p, seeds, Compiled.Csr.dijkstra rcsr ~seeds:ids))
      bindings

(* Fold one per-prefix array back into the canonical Smap binding the
   [state] type stores — the same keys, values and insertion sequence as
   [distances_csr], so marshalled states stay byte-identical. *)
let materialize_dists it (p, seeds, dist) =
  let out = distances_of_array it dist in
  let out =
    List.fold_left
      (fun out (r, c) ->
        if Interner.find it r <> None then out
        else
          Smap.update r
            (function Some d -> Some (min d c) | None -> Some c)
            out)
      out seeds
  in
  (p, (seeds, out))

(* The per-prefix distance bindings of a scope: sharded per-advertiser
   arrays, folded back into canonical maps. *)
let scope_dists ?pool adjs bindings =
  match bindings with
  | [] -> []
  | _ ->
      let it = scoped_interner adjs in
      let rcsr = scoped_csr ~rev:true it adjs in
      Pool.chunked_map ?pool (materialize_dists it)
        (dist_arrays ?pool it rcsr bindings)

let advertised_prefixes ?(scope = all) (net : Device.network) =
  Smap.fold
    (fun name (r : Device.router) acc ->
      if not (scope name) then acc
      else
        List.fold_left
          (fun acc i ->
            if Device.ospf_enabled r i then
              let p = Device.ifc_prefix i in
              Prefix.Map.update p
                (function
                  | None -> Some [ (name, i.Device.ifc_cost) ]
                  | Some l -> Some ((name, i.Device.ifc_cost) :: l))
                acc
            else acc)
          acc r.r_ifaces)
    net.routers Prefix.Map.empty

(* The SPF state of one IGP domain: the scoped adjacencies and, per
   advertised prefix, the routers it is connected to and the reverse
   shortest-path distance of every scoped router toward it. This is the
   expensive part of OSPF — it depends only on interfaces, costs and
   [network] statements, never on distribute-list filters, so the
   incremental engine reuses it across filter-only edits. *)
type state = {
  st_adjs : Device.adj list Smap.t;
  st_dists : ((string * int) list * int Smap.t) Prefix.Map.t;
}

let prepare ?(scope = all) ?pool (net : Device.network) =
  Telemetry.with_span "ospf.prepare" @@ fun () ->
  let adjs = ospf_adjs ~scope net in
  let prefixes = advertised_prefixes ~scope net in
  (* One reverse Dijkstra per advertised prefix (deduped per advertiser
     on the sharded path), embarrassingly parallel. *)
  let dists = scope_dists ?pool adjs (Prefix.Map.bindings prefixes) in
  {
    st_adjs = adjs;
    st_dists =
      List.fold_left
        (fun m (p, v) -> Prefix.Map.add p v m)
        Prefix.Map.empty dists;
  }

(* Refresh a state after an edit that kept every router-to-router OSPF
   adjacency intact (e.g. attaching stub networks for fake hosts): only
   prefixes whose advertising seeds changed need new Dijkstras, every
   other distance field is carried over. Returns the new state plus the
   prefixes whose distances changed (including removed ones) so selection
   can be patched, or None when the adjacencies differ and a full
   [prepare] is required. *)
let prepare_update ?(scope = all) ?pool ~(prev : state) (net : Device.network) =
  Telemetry.with_span "ospf.prepare_update" @@ fun () ->
  let adjs = ospf_adjs ~scope net in
  if not (Smap.equal ( = ) adjs prev.st_adjs) then None
  else
    let prefixes = advertised_prefixes ~scope net in
    let fresh =
      Prefix.Map.fold
        (fun p seeds acc ->
          match Prefix.Map.find_opt p prev.st_dists with
          | Some (seeds', _) when seeds = seeds' -> acc
          | _ -> (p, seeds) :: acc)
        prefixes []
    in
    let removed =
      Prefix.Map.fold
        (fun p _ acc -> if Prefix.Map.mem p prefixes then acc else p :: acc)
        prev.st_dists []
    in
    (* The scoped graph is only compiled when something actually needs a
       new Dijkstra ([scope_dists] short-circuits on []). *)
    let recomputed = scope_dists ?pool adjs fresh in
    let dists =
      List.fold_left
        (fun m (p, v) -> Prefix.Map.add p v m)
        (Prefix.Map.filter
           (fun p _ -> Prefix.Map.mem p prefixes)
           prev.st_dists)
        recomputed
    in
    let changed = removed @ List.map fst recomputed in
    Some ({ st_adjs = prev.st_adjs; st_dists = dists }, changed)

(* Rebind a state's adjacencies to the current network. The distance
   fields of a state are a function of SPF-relevant inputs only (the
   engine's spf fingerprints), but [st_adjs] embeds whole interface
   records — delays, ACLs, descriptions — that those fingerprints
   deliberately exclude. A state restored from the disk cache therefore
   recomputes its adjacencies here, so it is structurally identical to a
   fresh [prepare] and later [prepare_update] equality checks see no
   phantom change. *)
let rescope ?(scope = all) (net : Device.network) (st : state) =
  { st with st_adjs = ospf_adjs ~scope net }

(* Route selection for one (router, prefix) pair against a prepared
   state: a function of the router's own filters and scoped adjacencies
   only. *)
let select_one ~filters ~adjs r p (seeds, dist) =
  match Smap.find_opt r dist with
  | None -> None
  | Some dr ->
      if List.mem_assoc r seeds then None
      else
        let nexthops =
          List.filter_map
            (fun (a : Device.adj) ->
              match Smap.find_opt a.a_to dist with
              | Some dn when a.a_out_iface.ifc_cost + dn = dr ->
                  if Device.iface_filter_denies filters a.a_out_iface.ifc_name p
                  then None
                  else
                    Some
                      { Fib.nh_router = a.a_to; nh_iface = a.a_out_iface.ifc_name }
              | Some _ | None -> None)
            adjs
        in
        if nexthops = [] then None
        else
          Some
            {
              Fib.rt_prefix = p;
              rt_proto = Fib.Ospf;
              rt_metric = dr;
              rt_nexthops = nexthops;
            }

let router_filters (net : Device.network) r =
  match Smap.find_opt r net.routers with
  | None -> []
  | Some router -> (
      match router.Device.r_ospf with Some o -> o.op_filters | None -> [])

(* Route selection for one router against a prepared state: cheap, and a
   function of the router's own filters and scoped adjacencies only. *)
let routes_for st (net : Device.network) r =
  let filters = router_filters net r in
  let adjs = Option.value ~default:[] (Smap.find_opt r st.st_adjs) in
  Prefix.Map.fold
    (fun p v acc ->
      match select_one ~filters ~adjs r p v with
      | None -> acc
      | Some route -> route :: acc)
    st.st_dists []

(* ---- filter-delta selection ----

   The anonymization loops only ever touch distribute-lists of the shape
   produced by [Edits.deny_on_iface]: exact-match rules followed by a
   catch-all permit. Under that shape a prefix not named by any rule is
   permitted no matter what, so the set of prefixes whose import decision
   can differ between two filter configurations is bounded by the rules'
   own prefixes — and route selection can be patched instead of redone. *)

let exact_rule (r : Ast.prefix_rule) = r.le = None

let permit_all_rule (r : Ast.prefix_rule) =
  r.action = Ast.Permit && Prefix.length r.rule_prefix = 0
  &&
  match r.le with Some le -> le >= 32 | None -> false

(* A list where only explicitly named prefixes can be denied: exact rules
   in front, one catch-all permit at the end (the [Edits.list_deny]
   shape). Returns the named prefixes, or None if the shape is more
   general than that. *)
let bounded_list (pl : Ast.prefix_list) =
  match List.rev pl.pl_rules with
  | last :: earlier when permit_all_rule last ->
      if List.for_all exact_rule earlier then
        Some (List.map (fun (r : Ast.prefix_rule) -> r.rule_prefix) earlier)
      else None
  | _ -> None

(* Prefixes whose inbound decision at a router can differ between filter
   configurations [old_f] and [new_f]; None when the lists are too
   general to bound cheaply (callers then fall back to [routes_for]). *)
let changed_filter_prefixes old_f new_f =
  let ifaces =
    List.sort_uniq String.compare (List.map fst old_f @ List.map fst new_f)
  in
  let rec per_iface acc = function
    | [] -> Some (List.sort_uniq Prefix.compare acc)
    | ifc :: rest ->
        let bound f = List.filter_map
            (fun (i, pl) -> if String.equal i ifc then Some pl else None) f
        in
        let o = bound old_f and n = bound new_f in
        if o = n then per_iface acc rest
        else
          let collect pls =
            List.fold_left
              (fun acc pl ->
                match (acc, bounded_list pl) with
                | Some acc, Some ps -> Some (ps @ acc)
                | _ -> None)
              (Some []) pls
          in
          (match collect (o @ n) with
          | Some ps -> per_iface (ps @ acc) rest
          | None -> None)
  in
  per_iface [] ifaces

(* Patch a previous [routes_for] result after a filter-only change:
   recompute selection for the [affected] prefixes and splice the results
   into [prev], preserving the descending-prefix order [routes_for]
   produces. Correct only when the SPF state is unchanged and every
   prefix outside [affected] keeps its filter decision. *)
let routes_for_update st (net : Device.network) r ~prev ~affected =
  let filters = router_filters net r in
  let adjs = Option.value ~default:[] (Smap.find_opt r st.st_adjs) in
  let news =
    (* A prefix no longer advertised still needs a [None] entry so the
       merge drops its previous route. *)
    List.map
      (fun p ->
        ( p,
          Option.bind
            (Prefix.Map.find_opt p st.st_dists)
            (fun v -> select_one ~filters ~adjs r p v) ))
      affected
    |> List.sort_uniq (fun (a, _) (b, _) -> Prefix.compare b a)
  in
  let rec merge prev news =
    match news with
    | [] -> prev
    | (p, ro) :: ntl -> (
        match prev with
        | (r : Fib.route) :: ptl when Prefix.compare r.rt_prefix p > 0 ->
            r :: merge ptl news
        | _ ->
            let prev =
              match prev with
              | (r : Fib.route) :: ptl when Prefix.compare r.rt_prefix p = 0 ->
                  ptl
              | _ -> prev
            in
            (match ro with
            | Some route -> route :: merge prev ntl
            | None -> merge prev ntl))
  in
  merge prev news

(* ---- batched selection ----

   Route selection for every scoped router in one sweep. [routes_for]
   performs P×V [Smap.find_opt] probes (one per (router, prefix) pair,
   plus one per adjacency); here each per-prefix distance field is
   splatted into a dense array once and every router's pre-resolved
   adjacency row is scanned against it. Produces, per router, exactly
   the route list [routes_for] builds — same routes, same
   descending-prefix order, same nexthop order — because per prefix it
   evaluates the very conditions of [select_one] on the same adjacency
   sequence.

   The per-prefix sweeps are sharded in contiguous ascending-prefix
   chunks; each chunk accumulates per-router route lists, and chunks are
   stitched as [later @ earlier] so the final per-router list is the
   descending-prefix order of the sequential fold. *)
let select_core ?pool it (net : Device.network) adjs dists =
  let n = Interner.length it in
  (* Flattened adjacency in CSR form with one prebuilt next-hop record
     per edge: next hops are identical for every prefix the edge serves,
     so sharing the records saves an allocation per (router, prefix,
     edge) hit without changing anything structural equality sees. *)
  let filt_rows = Array.make (max 1 n) [] in
  let rows = Array.make (max 1 n) [] in
  let n_edges = ref 0 in
  Interner.iter it (fun v name ->
      let row = Option.value ~default:[] (Smap.find_opt name adjs) in
      rows.(v) <- row;
      n_edges := !n_edges + List.length row;
      filt_rows.(v) <- router_filters net name);
  let off = Array.make (max 1 (n + 1)) 0 in
  let e_to = Array.make (max 1 !n_edges) 0 in
  let e_cost = Array.make (max 1 !n_edges) 0 in
  let e_iface = Array.make (max 1 !n_edges) "" in
  let e_nh =
    Array.make (max 1 !n_edges) { Fib.nh_router = ""; nh_iface = "" }
  in
  let e_nh1 : Fib.nexthop list array = Array.make (max 1 !n_edges) [] in
  let pos = ref 0 in
  for v = 0 to n - 1 do
    off.(v) <- !pos;
    List.iter
      (fun (a : Device.adj) ->
        let e = !pos in
        incr pos;
        e_to.(e) <- Interner.find_exn it a.a_to;
        e_cost.(e) <- a.a_out_iface.ifc_cost;
        e_iface.(e) <- a.a_out_iface.ifc_name;
        e_nh.(e) <-
          { Fib.nh_router = a.a_to; nh_iface = a.a_out_iface.ifc_name };
        e_nh1.(e) <- [ e_nh.(e) ])
      rows.(v)
  done;
  off.(n) <- !pos;
  let process chunk =
    let acc = Array.make (max 1 n) [] in
    (* Seed membership per prefix, generation-stamped to avoid clearing. *)
    let seedgen = Array.make (max 1 n) (-1) in
    let gen = ref (-1) in
    List.iter
      (fun (p, seeds, dist) ->
        incr gen;
        List.iter
          (fun (r, _) ->
            match Interner.find it r with
            | Some v -> seedgen.(v) <- !gen
            | None -> ())
          seeds;
        for v = 0 to n - 1 do
          let dr = Array.unsafe_get dist v in
          if dr < max_int && seedgen.(v) <> !gen then begin
            let filters = filt_rows.(v) in
            let no_filters = filters == [] in
            (* The hit test appears twice, hand-inlined: a [hit e]
               closure here costs an allocation per (prefix, router). *)
            (* Count first: a single next hop — the common case — reuses
               the edge's preallocated singleton list. *)
            let count = ref 0 and last = ref 0 in
            for e = off.(v) to off.(v + 1) - 1 do
              let dn = Array.unsafe_get dist (Array.unsafe_get e_to e) in
              if
                dn < max_int
                && Array.unsafe_get e_cost e + dn = dr
                && (no_filters
                   || not
                        (Device.iface_filter_denies filters
                           (Array.unsafe_get e_iface e) p))
              then begin
                incr count;
                last := e
              end
            done;
            if !count > 0 then begin
              let nexthops =
                if !count = 1 then Array.unsafe_get e_nh1 !last
                else begin
                  let nhs = ref [] in
                  for e = off.(v + 1) - 1 downto off.(v) do
                    let dn = Array.unsafe_get dist (Array.unsafe_get e_to e) in
                    if
                      dn < max_int
                      && Array.unsafe_get e_cost e + dn = dr
                      && (no_filters
                         || not
                              (Device.iface_filter_denies filters
                                 (Array.unsafe_get e_iface e) p))
                    then nhs := Array.unsafe_get e_nh e :: !nhs
                  done;
                  !nhs
                end
              in
              acc.(v) <-
                {
                  Fib.rt_prefix = p;
                  rt_proto = Fib.Ospf;
                  rt_metric = dr;
                  rt_nexthops = nexthops;
                }
                :: acc.(v)
            end
          end
        done)
      chunk;
    acc
  in
  let into = Pool.effective_jobs ?pool () * 4 in
  let accs = Pool.parallel_map ?pool process (Pool.chunks ~into dists) in
  let result = Array.make (max 1 n) [] in
  List.iter
    (fun acc ->
      for v = 0 to n - 1 do
        if acc.(v) <> [] then result.(v) <- acc.(v) @ result.(v)
      done)
    accs;
  let out = ref Smap.empty in
  Interner.iter it (fun v name ->
      if result.(v) <> [] then out := Smap.add name result.(v) !out);
  !out

(* [routes_for] over every scoped router at once, from a prepared state:
   [Smap.find_opt m (select_all st net) |> Option.value ~default:[]]
   equals [routes_for st net m] for every scoped router [m]. *)
let select_all ?pool (st : state) (net : Device.network) =
  Telemetry.with_span "ospf.select_all" @@ fun () ->
  let it = scoped_interner st.st_adjs in
  let n = Interner.length it in
  let dists =
    Pool.chunked_map ?pool
      (fun (p, (seeds, dmap)) ->
        let dist = Array.make (max 1 n) max_int in
        Smap.iter
          (fun r d ->
            match Interner.find it r with
            | Some v -> dist.(v) <- d
            | None -> ())
          dmap;
        (p, seeds, dist))
      (Prefix.Map.bindings st.st_dists)
  in
  select_core ?pool it net st.st_adjs dists

(* The per-prefix distance arrays feed batched selection directly: the
   canonical per-prefix [Smap]s of a [state] are never materialized here
   (only [prepare], whose states the engine caches and persists to disk,
   pays for them). Routers outside the scoped OSPF graph select no
   routes, so sweeping interner ids instead of [net.routers] yields the
   same map as [routes_for] over every scoped router. *)
let compute ?(scope = all) ?pool (net : Device.network) =
  let adjs = ospf_adjs ~scope net in
  let bindings = Prefix.Map.bindings (advertised_prefixes ~scope net) in
  let it = scoped_interner adjs in
  let rcsr = scoped_csr ~rev:true it adjs in
  let da = dist_arrays ?pool it rcsr bindings in
  select_core ?pool it net adjs da

(* One scope's forward-distance machinery, prepared once and reused
   across sources: the interner and forward CSR, whose construction
   dominates a single-source query on large networks. *)
type cost_state = { cs_names : Interner.t; cs_csr : Compiled.Csr.t }

let min_cost_state ?(scope = all) (net : Device.network) =
  let adjs = ospf_adjs ~scope net in
  let it = scoped_interner adjs in
  { cs_names = it; cs_csr = scoped_csr ~rev:false it adjs }

(* Distance from [u] to each router v: Dijkstra on forward adjacencies. *)
let min_cost_from st u = distances_csr st.cs_names st.cs_csr [ (u, 0) ]

let min_cost ?scope (net : Device.network) u =
  min_cost_from (min_cost_state ?scope net) u
