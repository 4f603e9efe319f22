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
  Csr.of_edges ~n:(Interner.length it) edges

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

(* Per-prefix distance arrays over the interner ids, [max_int] where a
   router cannot reach the prefix. Non-interned seeds get no entry: such
   a router has no scoped adjacency, so no interned router can route
   through it, and it selects no route itself because it is a seed.
   Uses the per-advertiser dedup unless the scope has more distinct
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
           (v, Csr.dijkstra rcsr ~seeds:[ (v, 0) ]))
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
        (p, (seeds, dist)))
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
        (p, (seeds, Csr.dijkstra rcsr ~seeds:ids)))
      bindings

(* The per-prefix distance bindings of a scope, in [bindings] order. The
   scoped graph is only compiled when some prefix needs a Dijkstra. *)
let scope_dists ?pool it adjs bindings =
  match bindings with
  | [] -> []
  | _ -> dist_arrays ?pool it (scoped_csr ~rev:true it adjs) bindings

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

(* The SPF state of one IGP domain: the scoped adjacencies, the interner
   over their routers (ids in ascending name order), and per advertised
   prefix the routers it is connected to and the reverse shortest-path
   distance of every interned router toward it, as a dense array indexed
   by router id. This is the expensive part of OSPF — it depends only on
   interfaces, costs and [network] statements, never on distribute-list
   filters, so the incremental engine reuses it across filter-only
   edits. The arrays are never written after [dist_arrays] returns, so
   states share them freely. *)
type state = {
  st_adjs : Device.adj list Smap.t;
  st_ids : Interner.t;
  st_dists : ((string * int) list * int array) Prefix.Map.t;
}

let dists_of_list l =
  List.fold_left (fun m (p, v) -> Prefix.Map.add p v m) Prefix.Map.empty l

let prepare ?(scope = all) ?pool (net : Device.network) =
  Telemetry.with_span "ospf.prepare" @@ fun () ->
  let adjs = ospf_adjs ~scope net in
  let it = scoped_interner adjs in
  let prefixes = advertised_prefixes ~scope net in
  (* One reverse Dijkstra per advertised prefix (deduped per advertiser
     on the sharded path), embarrassingly parallel. *)
  {
    st_adjs = adjs;
    st_ids = it;
    st_dists = dists_of_list (scope_dists ?pool it adjs (Prefix.Map.bindings prefixes));
  }

(* What SPF and route selection read of one adjacency, in the order
   [Device.compile] sorts rows by (peer, then out-interface name). *)
let adj_key (a : Device.adj) = (a.a_to, a.a_out_iface.ifc_name, a.a_out_iface.ifc_cost)

(* The adjacencies [new_row] adds to [old_row], or None when [old_row]
   has one that [new_row] lacks (a removed or re-costed link). One
   linear merge over the rows as they are: an old adjacency only ever
   matches an equal new one, so a [Some] answer is always right, and on
   rows in key order it is also found whenever it exists. *)
let added_adjs old_row new_row =
  let rec diff acc o n =
    match (o, n) with
    | [], rest -> Some (List.rev_append acc (List.map adj_key rest))
    | _ :: _, [] -> None
    | x :: o', y :: n' ->
        let c = compare (adj_key x) (adj_key y) in
        if c = 0 then diff acc o' n'
        else if c > 0 then diff (adj_key y :: acc) o n'
        else None
  in
  diff [] old_row new_row

(* Refresh a state after an edit that kept the scoped router set and
   every existing adjacency (stub attachments), and possibly added some
   (fake links). A distance field carries over, physically, when its
   seeds are unchanged and no added directed edge u->v of cost c relaxes
   it, i.e. d(u) <= c + d(v) holds for each: the old field then still
   satisfies every edge of the new graph, so it is still the
   shortest-path fixpoint. This is checked, not assumed — ConfMask's SFE
   cost rule makes fake links pass it, but nothing here relies on that.
   Every other prefix gets a fresh Dijkstra on the new graph. Returns the
   new state, the prefixes whose distances changed (including removed
   ones) and the routers whose adjacency row gained an adjacency, or
   None when an adjacency was removed or re-costed or the router set
   moved and a full [prepare] is required. *)
let prepare_update ?(scope = all) ?pool ~(prev : state) (net : Device.network) =
  Telemetry.with_span "ospf.prepare_update" @@ fun () ->
  let adjs = ospf_adjs ~scope net in
  let rows =
    if not (Smap.equal (fun _ _ -> true) adjs prev.st_adjs) then None
    else
      Smap.fold
        (fun r new_row acc ->
          match acc with
          | None -> None
          | Some (routers, edges) -> (
              match added_adjs (Smap.find r prev.st_adjs) new_row with
              | None -> None
              | Some [] -> acc
              | Some added ->
                  Some
                    ( r :: routers,
                      List.map (fun (v, _, c) -> (r, v, c)) added @ edges )))
        adjs
        (Some ([], []))
  in
  match rows with
  | None -> None
  | Some (changed_routers, added) ->
      let it = prev.st_ids in
      let added =
        List.map
          (fun (u, v, c) -> (Interner.find_exn it u, Interner.find_exn it v, c))
          added
      in
      let relaxed dist =
        List.exists
          (fun (u, v, c) ->
            let dv = dist.(v) in
            dv < max_int && c + dv < dist.(u))
          added
      in
      let prefixes = advertised_prefixes ~scope net in
      let fresh =
        Prefix.Map.fold
          (fun p seeds acc ->
            match Prefix.Map.find_opt p prev.st_dists with
            | Some (seeds', dist) when seeds = seeds' && not (relaxed dist) -> acc
            | _ -> (p, seeds) :: acc)
          prefixes []
        |> List.rev
      in
      let removed =
        Prefix.Map.fold
          (fun p _ acc -> if Prefix.Map.mem p prefixes then acc else p :: acc)
          prev.st_dists []
      in
      let recomputed = scope_dists ?pool it adjs fresh in
      let dists =
        List.fold_left
          (fun m (p, v) -> Prefix.Map.add p v m)
          (Prefix.Map.filter
             (fun p _ -> Prefix.Map.mem p prefixes)
             prev.st_dists)
          recomputed
      in
      Some
        ( { st_adjs = adjs; st_ids = it; st_dists = dists },
          removed @ List.map fst recomputed,
          List.rev changed_routers )

(* ---- route selection ----

   A router's OSPF selection for one prefix reads its distance to the
   prefix, its adjacency row, its peers' distances and its own
   distribute-list filters. [rows_of] resolves the rows of a set of
   routers once into flat arrays, with one prebuilt next-hop record and
   singleton list per edge: next hops are identical for every prefix the
   edge serves, so sharing them saves an allocation per (router, prefix,
   edge) hit without changing anything structural equality sees. *)
type rows = {
  off : int array;  (* row [k]'s edges are [off.(k) .. off.(k + 1) - 1] *)
  e_to : int array;  (* peer router id *)
  e_cost : int array;
  e_iface : string array;
  e_nh : Fib.nexthop array;
  e_nh1 : Fib.nexthop list array;
  filt : (string * Ast.prefix_list) list array;  (* per row *)
}

let router_filters (net : Device.network) r =
  match Smap.find_opt r net.routers with
  | None -> []
  | Some router -> (
      match router.Device.r_ospf with Some o -> o.op_filters | None -> [])

(* The rows of routers [names], row [k] for [names.(k)]. *)
let rows_of st (net : Device.network) names =
  let adj_rows =
    Array.map
      (fun r -> Option.value ~default:[] (Smap.find_opt r st.st_adjs))
      names
  in
  let m = Array.fold_left (fun m row -> m + List.length row) 0 adj_rows in
  let rows =
    {
      off = Array.make (Array.length names + 1) 0;
      e_to = Array.make m 0;
      e_cost = Array.make m 0;
      e_iface = Array.make m "";
      e_nh = Array.make m { Fib.nh_router = ""; nh_iface = "" };
      e_nh1 = Array.make m [];
      filt = Array.map (router_filters net) names;
    }
  in
  let pos = ref 0 in
  Array.iteri
    (fun k row ->
      rows.off.(k) <- !pos;
      List.iter
        (fun (a : Device.adj) ->
          let e = !pos in
          incr pos;
          let nh = { Fib.nh_router = a.a_to; nh_iface = a.a_out_iface.ifc_name } in
          rows.e_to.(e) <- Interner.find_exn st.st_ids a.a_to;
          rows.e_cost.(e) <- a.a_out_iface.ifc_cost;
          rows.e_iface.(e) <- a.a_out_iface.ifc_name;
          rows.e_nh.(e) <- nh;
          rows.e_nh1.(e) <- [ nh ])
        row)
    adj_rows;
  rows.off.(Array.length names) <- !pos;
  rows

(* Whether edge [e] of a row is a next hop toward [p] for a router at
   distance [dr]: it lies on a shortest path and the router's [filters]
   do not deny [p] on its interface. A plain function of its arguments,
   so testing an edge allocates nothing. *)
let on_path rows filters dist dr p e =
  let dn = Array.unsafe_get dist (Array.unsafe_get rows.e_to e) in
  dn < max_int
  && Array.unsafe_get rows.e_cost e + dn = dr
  && (filters == []
     || not (Device.iface_filter_denies filters (Array.unsafe_get rows.e_iface e) p))

(* The hit of row [k], whose router has id [v], for prefix [p] with
   distance array [dist]: -1 when it selects no route, the edge itself
   when exactly one next hop qualifies (the common case, answered by the
   edge's preallocated singleton list) and -2 for several. Allocates
   nothing. The caller has already excluded [p]'s seeds, which select
   nothing. *)
let row_hit rows k v p dist =
  let dr = Array.unsafe_get dist v in
  if dr = max_int then -1
  else begin
    let filters = rows.filt.(k) in
    let count = ref 0 and last = ref (-1) in
    for e = rows.off.(k) to rows.off.(k + 1) - 1 do
      if on_path rows filters dist dr p e then begin
        incr count;
        last := e
      end
    done;
    if !count = 0 then -1 else if !count = 1 then !last else -2
  end

(* The route of a hit [h] of [row_hit] for a router at distance [dr]:
   next hops in row order. *)
let row_route rows k dr p dist h =
  let nexthops =
    if h >= 0 then Array.unsafe_get rows.e_nh1 h
    else begin
      let filters = rows.filt.(k) in
      let nhs = ref [] in
      for e = rows.off.(k + 1) - 1 downto rows.off.(k) do
        if on_path rows filters dist dr p e then nhs := Array.unsafe_get rows.e_nh e :: !nhs
      done;
      !nhs
    end
  in
  { Fib.rt_prefix = p; rt_proto = Fib.Ospf; rt_metric = dr; rt_nexthops = nexthops }

let select_row rows k v p dist =
  let h = row_hit rows k v p dist in
  if h = -1 then None else Some (row_route rows k dist.(v) p dist h)

let rec is_seed r = function
  | [] -> false
  | (s, _) :: tl -> String.equal s r || is_seed r tl

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
   general to bound cheaply (callers then redo the whole selection). *)
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

(* ---- base FIBs ----

   A router's OSPF selection is written straight into its base FIB,
   merged slot by slot with its other candidates ([others]). The fill is
   router-major: each router's array is counted, allocated at its exact
   size and filled in ascending prefix order before the next router's.
   Route records are young when the major-heap array takes them, so the
   next minor collection promotes them in store order; filling router by
   router keeps each router's records together, where a prefix-major
   fill would scatter them and slow every later scan of the FIB. *)

(* The state's prefixes in ascending order with their distance arrays
   and their interned seeds' ids, built once per fill. *)
type table = {
  t_prefix : Prefix.t array;
  t_dist : int array array;
  t_seeds : int list array;
}

let table st =
  let b = Array.of_list (Prefix.Map.bindings st.st_dists) in
  {
    t_prefix = Array.map fst b;
    t_dist = Array.map (fun (_, (_, d)) -> d) b;
    t_seeds =
      Array.map
        (fun (_, (seeds, _)) ->
          List.filter_map (fun (r, _) -> Interner.find st.st_ids r) seeds)
        b;
  }

let rec mem_id (v : int) = function [] -> false | x :: tl -> x = v || mem_id v tl

(* Hits are found a block of routers at a time. A prefix-major pass over
   the block records every (router, prefix) hit in [marks] — each
   distance array stays in cache while the block's rows read it, where a
   router-major pass would miss on every prefix — and allocates nothing.
   Then each router's array is filled from its row of [marks]. A mark is
   -1 for no route, else the metric shifted left by [mark_bits] over the
   single next hop's edge index within the row plus one, or 0 for
   several next hops (rows have fewer than 2^21 - 1 edges). *)
let block = 64
let mark_bits = 21
let mark_mask = (1 lsl mark_bits) - 1

let mark rows k v p dist =
  let h = row_hit rows k v p dist in
  if h = -1 then -1
  else (Array.unsafe_get dist v lsl mark_bits) lor if h >= 0 then h - rows.off.(k) + 1 else 0

let route_of_mark rows k p dist m =
  let e = (m land mark_mask) - 1 in
  row_route rows k (m lsr mark_bits) p dist (if e >= 0 then rows.off.(k) + e else -2)

(* Routers are sharded in contiguous chunks; each chunk resolves its
   rows once and reuses one marks matrix across its blocks. A router's
   FIB depends on its own row and the shared table only, so neither the
   chunking nor the blocking can change it. *)
let base_fibs ?pool st (net : Device.network) members =
  Telemetry.with_span "ospf.base_fibs" @@ fun () ->
  let tb = table st in
  let np = Array.length tb.t_prefix in
  let chunk ms =
    let ms = Array.of_list ms in
    let rows = rows_of st net (Array.map fst ms) in
    let ids =
      Array.map (fun (r, _) -> Option.value ~default:(-1) (Interner.find st.st_ids r)) ms
    in
    let marks = Array.make (max 1 (min block (Array.length ms) * np)) (-1) in
    let out = Array.map snd ms in
    let b0 = ref 0 in
    while !b0 < Array.length ms do
      let b1 = min (Array.length ms) (!b0 + block) in
      for i = 0 to np - 1 do
        let p = tb.t_prefix.(i) and dist = tb.t_dist.(i) and seeds = tb.t_seeds.(i) in
        for k = !b0 to b1 - 1 do
          let v = ids.(k) in
          marks.(((k - !b0) * np) + i) <-
            (if v < 0 || mem_id v seeds then -1 else mark rows k v p dist)
        done
      done;
      for k = !b0 to b1 - 1 do
        if ids.(k) >= 0 then begin
          let at = (k - !b0) * np in
          out.(k) <-
            Fib.fill (snd ms.(k)) np
              ~key:(fun i -> tb.t_prefix.(i))
              ~hit:(fun i -> marks.(at + i) <> -1)
              ~route:(fun i -> route_of_mark rows k tb.t_prefix.(i) tb.t_dist.(i) marks.(at + i))
        end
      done;
      b0 := b1
    done;
    Array.to_list out
  in
  let into = Pool.effective_jobs ?pool () * 4 in
  List.concat (Pool.parallel_map ?pool chunk (Pool.chunks ~into members))

let patch_base st (net : Device.network) r ~others fib ps =
  let rows = rows_of st net [| r |] in
  let id = Interner.find st.st_ids r in
  Fib.replace fib
    (List.map
       (fun p ->
         let selected =
           match (id, Prefix.Map.find_opt p st.st_dists) with
           | Some v, Some (seeds, dist) when not (is_seed r seeds) ->
               select_row rows 0 v p dist
           | _ -> None
         in
         (p, Option.to_list (Fib.find others p) @ Option.to_list selected))
       (List.sort_uniq Prefix.compare ps))

(* The selection alone: base FIBs over empty [others], read back as
   descending lists. *)
let compute ?(scope = all) ?pool (net : Device.network) =
  let st = prepare ~scope ?pool net in
  let names = List.init (Interner.length st.st_ids) (Interner.name st.st_ids) in
  List.fold_left2
    (fun acc r fib ->
      match List.rev (Fib.routes fib) with [] -> acc | routes -> Smap.add r routes acc)
    Smap.empty names
    (base_fibs ?pool st net (List.map (fun r -> (r, Fib.empty)) names))

(* Compiling the scope's forward CSR dominates a single-source query on
   large networks, so it happens once, when [net] is applied; each
   source then runs one Dijkstra. *)
let min_cost ?(scope = all) (net : Device.network) =
  let adjs = ospf_adjs ~scope net in
  let it = scoped_interner adjs in
  let csr = scoped_csr ~rev:false it adjs in
  fun u ->
    let dist = Option.map (fun i -> Csr.dijkstra csr ~seeds:[ (i, 0) ]) (Interner.find it u) in
    fun v ->
      if String.equal u v then Some 0
      else
        match (dist, Interner.find it v) with
        | Some d, Some j when d.(j) < max_int -> Some d.(j)
        | _ -> None
