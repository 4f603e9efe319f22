module Smap = Device.Smap
module Sset = Netcore.Graph.Sset

type path = string list

type trace = {
  delivered : path list;
  dropped : path list;
  filtered : path list;
  looped : path list;
  truncated : bool;
}

let max_paths_default = 4096

let c_classes = Netcore.Telemetry.counter "fec.classes"
let c_collapsed = Netcore.Telemetry.counter "fec.collapsed"
let c_traced = Netcore.Telemetry.counter "fec.traced"

let acl_permits acl ~src ~dst =
  match acl with
  | None -> true
  | Some a -> Configlang.Ast.acl_permits a ~src ~dst

(* Per-host walk inputs, hoisted so an extraction resolves each host's
   maps once instead of once per pair. [hi_starts] carries the exact
   sorted order the walk visits attachments in; [hi_datts] keeps the raw
   attachment order the delivery check scans; [hi_dest] is the host's
   address prepared for probe lookups. *)
type host_info = {
  hi_name : string;
  hi_host : Device.host;
  hi_prefix : Netcore.Prefix.t;
  hi_dest : Fib.dest;
  hi_starts : (string * Device.iface) list;
  hi_datts : (string * Device.iface) list;
  hi_drouters : string list;
}

let host_info (net : Device.network) name =
  match Smap.find_opt name net.hosts with
  | None -> invalid_arg ("Dataplane.traceroute: unknown host " ^ name)
  | Some h ->
      let atts =
        Option.value ~default:[] (Smap.find_opt name net.attachments)
      in
      {
        hi_name = name;
        hi_host = h;
        hi_prefix = Device.host_prefix h;
        hi_dest = Fib.dest h.h_addr;
        hi_starts = List.sort_uniq compare atts;
        hi_datts = atts;
        hi_drouters = List.map fst atts;
      }

(* The per-hop lookups a walk runs on. Two implementations with
   identical first-match semantics: [plain_lookups] is their
   specification — [List.find_opt] scans over the router's interfaces
   and adjacency row, and [Fib.lookup] (single-pair [traceroute], the
   naive reference) — and [probe_lookups] reads the network's
   [Device] tables and probes precomputed FIB accelerators
   (extraction). *)
type lookups = {
  lk_iface : string -> string -> Device.iface option;
      (* router -> out-interface name -> interface *)
  lk_arrival : string -> string -> string -> Device.iface option;
      (* router -> out-interface name -> next hop -> its arrival iface *)
  lk_route : string -> host_info -> Fib.route option;
      (* router -> destination host -> FIB longest-prefix match *)
}

let plain_lookups (net : Device.network) fibs =
  {
    lk_iface =
      (fun r n ->
        Option.bind (Smap.find_opt r net.routers) (fun (rt : Device.router) ->
            List.find_opt
              (fun (i : Device.iface) -> String.equal i.ifc_name n)
              rt.r_ifaces));
    lk_arrival =
      (fun r o nh ->
        Option.bind (Smap.find_opt r net.adjs) (fun row ->
            List.find_opt
              (fun (a : Device.adj) ->
                String.equal a.a_out_iface.ifc_name o && String.equal a.a_to nh)
              row)
        |> Option.map (fun (a : Device.adj) -> a.a_in_iface));
    lk_route =
      (fun r di ->
        match Smap.find_opt r fibs with
        | None -> None
        | Some fib -> Fib.lookup fib di.hi_host.h_addr);
  }

let probe_table fibs =
  let probes = Hashtbl.create 256 in
  Smap.iter (fun name fib -> Hashtbl.replace probes name (Fib.probe fib)) fibs;
  probes

let probe_lookups net probes =
  {
    lk_iface = Device.find_iface net;
    lk_arrival = Device.arrival_iface net;
    lk_route =
      (fun r di ->
        match Hashtbl.find_opt probes r with
        | None -> None
        | Some pb -> Fib.probe_lpm pb di.hi_dest);
  }

(* Two hosts on one subnet reach each other directly: the walk never
   leaves the source. *)
let shortcut_trace src dst =
  {
    delivered = [ [ src; dst ] ];
    dropped = [];
    filtered = [];
    looped = [];
    truncated = false;
  }

(* The walk itself, identical on every lookup implementation: a DFS over
   the ECMP branching in next-hop list order, so truncation at
   [max_paths] cuts the same paths either way. *)
let trace_hosts ?(max_paths = max_paths_default) (lk : lookups)
    ~(si : host_info) ~(di : host_info) =
  let src = si.hi_name and dst = di.hi_name in
  let src_addr = si.hi_host.h_addr and dst_addr = di.hi_host.h_addr in
  let permits acl = acl_permits acl ~src:src_addr ~dst:dst_addr in
  if Netcore.Prefix.equal si.hi_prefix di.hi_prefix then shortcut_trace src dst
  else begin
    let dst_attachments = di.hi_datts in
    let dst_routers = di.hi_drouters in
    let delivered = ref [] and dropped = ref [] and filtered = ref [] in
    let looped = ref [] in
    let count = ref 0 in
    let truncated = ref false in
    (* DFS over the ECMP branching; [rev] accumulates routers in reverse.
       [arrival] is the interface the packet arrived on at [router]. *)
    let rec walk router arrival visited rev =
      if !count >= max_paths then truncated := true
      else if
        not (permits (Option.bind arrival (fun i -> i.Device.ifc_acl_in)))
      then filtered := (src :: List.rev (router :: rev)) :: !filtered
      else if List.mem router dst_routers then begin
        (* Delivery: the outbound filter of the host-facing interface. *)
        let out_acl =
          List.assoc_opt router dst_attachments
          |> fun o -> Option.bind o (fun i -> i.Device.ifc_acl_out)
        in
        if permits out_acl then begin
          incr count;
          delivered :=
            ((src :: List.rev (router :: rev)) @ [ dst ]) :: !delivered
        end
        else filtered := (src :: List.rev (router :: rev)) :: !filtered
      end
      else if Sset.mem router visited then
        looped := (src :: List.rev (router :: rev)) :: !looped
      else
        let visited = Sset.add router visited in
        let rev = router :: rev in
        match lk.lk_route router di with
        | None -> dropped := (src :: List.rev rev) :: !dropped
        | Some route when route.rt_nexthops = [] ->
            (* Connected route but the destination host is not attached
               here: the address does not answer. *)
            dropped := (src :: List.rev rev) :: !dropped
        | Some route ->
            List.iter
              (fun (nh : Fib.nexthop) ->
                match lk.lk_iface router nh.nh_iface with
                | Some out_iface when not (permits out_iface.ifc_acl_out) ->
                    filtered := (src :: List.rev rev) :: !filtered
                | out ->
                    ignore out;
                    walk nh.nh_router
                      (lk.lk_arrival router nh.nh_iface nh.nh_router)
                      visited rev)
              route.rt_nexthops
    in
    List.iter (fun (r, iface) -> walk r (Some iface) Sset.empty []) si.hi_starts;
    {
      delivered = List.sort_uniq compare !delivered;
      dropped = List.sort_uniq compare !dropped;
      filtered = List.sort_uniq compare !filtered;
      looped = List.sort_uniq compare !looped;
      truncated = !truncated;
    }
  end

let traceroute ?max_paths (net : Device.network) fibs ~src ~dst =
  trace_hosts ?max_paths (plain_lookups net fibs) ~si:(host_info net src)
    ~di:(host_info net dst)

(* ---- forwarding-equivalence classes ----

   Two hosts are forwarding-equivalent when every walk either of them
   takes part in — as source or destination, against any fixed other
   endpoint — behaves identically hop for hop. The walk consults a host
   only through:

   - its sorted start attachments, and of each start interface only the
     inbound ACL (projected per rule to how it treats this host's
     address as source);
   - its raw destination attachments — the delivery routers and each
     interface's outbound ACL projected per rule against this host's
     address as destination;
   - per-rule membership of the host's address in every ACL the network
     can evaluate mid-path (source- and destination-side);
   - the FIB answer of every router for the host's address, projected to
     the next-hop list (prefix and metric are never read by a walk).

   Hosts with equal signatures are interchangeable modulo the host names
   at a path's endpoints, so one representative trace per ordered class
   pair plus head/tail renaming reproduces tracing every pair exactly.
   The host's own prefix is deliberately not part of the signature: the
   same-subnet short-circuit is evaluated per pair, and representatives
   are chosen among pairs that do not short-circuit. *)

let proj_acl addr side (acl : Configlang.Ast.acl option) =
  Option.map
    (fun (a : Configlang.Ast.acl) ->
      List.map
        (fun (r : Configlang.Ast.acl_rule) ->
          let mem p =
            match p with
            | None -> true
            | Some p -> Netcore.Prefix.mem addr p
          in
          match side with
          | `Src -> (mem r.acl_src, r.acl_dst, r.acl_action)
          | `Dst -> (mem r.acl_dst, r.acl_src, r.acl_action))
        a.acl_rules)
    acl

(* Every ACL the walks can evaluate, in a canonical order (router ifaces
   in map order, inbound then outbound, then attachment ifaces). *)
let enumerate_acls (net : Device.network) =
  let of_iface (i : Device.iface) acc =
    let acc = match i.ifc_acl_out with Some a -> a :: acc | None -> acc in
    match i.ifc_acl_in with Some a -> a :: acc | None -> acc
  in
  let acc =
    Smap.fold
      (fun _ (r : Device.router) acc ->
        List.fold_left (fun acc i -> of_iface i acc) acc r.r_ifaces)
      net.routers []
  in
  Smap.fold
    (fun _ atts acc ->
      List.fold_left (fun acc (_, i) -> of_iface i acc) acc atts)
    net.attachments acc
  |> List.rev

(* Signatures are compared structurally as hash-table keys; the
   per-router route projections are interned to small ints first (shared
   across the extraction's hosts), so comparing and hashing a signature
   never walks next-hop records. *)
let route_interner () =
  let tbl : (Fib.nexthop list option, int) Hashtbl.t = Hashtbl.create 256 in
  fun proj ->
    match Hashtbl.find_opt tbl proj with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tbl in
        Hashtbl.add tbl proj i;
        i

let host_signature acls ~routes (hi : host_info) =
  let addr = hi.hi_host.h_addr in
  let starts =
    List.map (fun (r, i) -> (r, proj_acl addr `Src i.Device.ifc_acl_in)) hi.hi_starts
  in
  let datts =
    List.map (fun (r, i) -> (r, proj_acl addr `Dst i.Device.ifc_acl_out)) hi.hi_datts
  in
  let memberships =
    List.map
      (fun (a : Configlang.Ast.acl) ->
        List.map
          (fun (r : Configlang.Ast.acl_rule) ->
            ( (match r.acl_src with
              | None -> true
              | Some p -> Netcore.Prefix.mem addr p),
              match r.acl_dst with
              | None -> true
              | Some p -> Netcore.Prefix.mem addr p ))
          a.acl_rules)
      acls
  in
  (starts, datts, memberships, routes)

(* ---- per-destination memoized suffix walks ----

   When the network carries no packet filters at all, every [permits]
   check of a walk is vacuous and the walk's behavior below a router
   depends only on the destination: the trace from a start router is the
   set of forwarding paths of the destination's FIB DAG. Those suffixes
   are computed once per destination and shared by every representative
   source tracing toward it — tail
   sharing included, which is safe because traces are only ever read
   structurally. A FIB cycle or a path count at the truncation limit
   makes the memo unusable for that destination or pair; callers fall
   back to the exact DFS. *)

let no_acls (net : Device.network) =
  let iface_clear (i : Device.iface) =
    i.ifc_acl_in = None && i.ifc_acl_out = None
  in
  Smap.for_all
    (fun _ (r : Device.router) -> List.for_all iface_clear r.r_ifaces)
    net.routers
  && Smap.for_all
       (fun _ atts -> List.for_all (fun (_, i) -> iface_clear i) atts)
       net.attachments

exception Cyclic

type memo_node = {
  mn_deliv : int;  (* delivered-path count, saturated at cap + 1 *)
  mn_drop : int;   (* dropped-path count, saturated at cap + 1 *)
  mn_deliv_paths : path list Lazy.t;
      (* sorted, deduplicated suffixes ending in the dst host *)
  mn_drop_paths : path list Lazy.t;  (* sorted, deduplicated *)
}

(* Merge two sorted duplicate-free lists, dropping duplicates — the same
   order [List.sort_uniq compare] produces. *)
let rec merge_uniq a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c < 0 then x :: merge_uniq xs b
      else if c > 0 then y :: merge_uniq a ys
      else x :: merge_uniq xs ys

(* Balanced pairwise merging — a left fold over high-ECMP fan-in is
   quadratic. [merge_uniq] is associative and commutative up to the
   dedup, so the pairing order cannot change the result. *)
let merge_lists ls =
  let rec pairs = function
    | a :: b :: tl -> merge_uniq a b :: pairs tl
    | l -> l
  in
  let rec go = function [] -> [] | [ x ] -> x | ls -> go (pairs ls) in
  go ls

(* Lazy per-router suffix table toward one destination. The counts are
   computed eagerly on first touch (detecting cycles on the way); the
   path lists only materialize for routers whose counts stay under the
   cap, so ECMP blow-ups cost integers, not lists. Each list is kept
   sorted and duplicate-free: merging children preserves that, and so
   does prepending the router (or later the source host) to every
   element, so assembling a pair's trace needs no sorting at all. *)
let dest_memo (lk : lookups) (di : host_info) ~cap =
  let dst = di.hi_name in
  let tbl : (string, memo_node) Hashtbl.t = Hashtbl.create 64 in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let sat a b = if a + b > cap then cap + 1 else a + b in
  let rec node r =
    match Hashtbl.find_opt tbl r with
    | Some n -> n
    | None ->
        if Hashtbl.mem visiting r then raise Cyclic;
        Hashtbl.add visiting r ();
        let n =
          if List.mem r di.hi_drouters then
            {
              mn_deliv = 1;
              mn_drop = 0;
              mn_deliv_paths = lazy [ [ r; dst ] ];
              mn_drop_paths = lazy [];
            }
          else
            match lk.lk_route r di with
            | None | Some { Fib.rt_nexthops = []; _ } ->
                {
                  mn_deliv = 0;
                  mn_drop = 1;
                  mn_deliv_paths = lazy [];
                  mn_drop_paths = lazy [ [ r ] ];
                }
            | Some route ->
                let children =
                  List.map
                    (fun (nh : Fib.nexthop) -> node nh.nh_router)
                    route.rt_nexthops
                in
                let extend f =
                  lazy
                    (List.map
                       (fun p -> r :: p)
                       (merge_lists
                          (List.map (fun c -> Lazy.force (f c)) children)))
                in
                {
                  mn_deliv =
                    List.fold_left (fun a c -> sat a c.mn_deliv) 0 children;
                  mn_drop =
                    List.fold_left (fun a c -> sat a c.mn_drop) 0 children;
                  mn_deliv_paths = extend (fun c -> c.mn_deliv_paths);
                  mn_drop_paths = extend (fun c -> c.mn_drop_paths);
                }
        in
        Hashtbl.remove visiting r;
        Hashtbl.add tbl r n;
        n
  in
  node

(* Assemble one pair's trace from the destination memo, or [None] when
   the DFS must run instead (cycle below a start router, or enough paths
   that the DFS would truncate). Exactness: with no filters, [filtered]
   and (acyclic) [looped] are empty, the DFS never truncates below the
   cap, and its final [sort_uniq] makes traversal order irrelevant. *)
let memo_trace node ~cap ~(si : host_info) =
  match
    List.fold_left
      (fun acc (r, _) ->
        match acc with
        | None -> None
        | Some (nodes, d, x) ->
            let n = node r in
            Some (n :: nodes, d + n.mn_deliv, x + n.mn_drop))
      (Some ([], 0, 0))
      si.hi_starts
  with
  | exception Cyclic -> None
  | None -> None
  | Some (_, deliv, _) when deliv >= cap -> None
  | Some (nodes, _, _) ->
      let src = si.hi_name in
      let assemble f =
        List.map
          (fun sfx -> src :: sfx)
          (merge_lists (List.map (fun n -> Lazy.force (f n)) nodes))
      in
      Some
        {
          delivered = assemble (fun n -> n.mn_deliv_paths);
          dropped = assemble (fun n -> n.mn_drop_paths);
          filtered = [];
          looped = [];
          truncated = false;
        }


(* Rename a representative trace onto another member pair of the same
   ordered class pair: heads become the new source, and delivered paths
   additionally end in the new destination. Renaming can reorder a
   sorted list (paths differ only past the renamed cells), hence the
   re-[sort_uniq]; it cannot merge two paths, since equal renamed paths
   would already have been equal. *)
let rename_trace ~src ~dst (t : trace) =
  let head = function [] -> [] | _ :: tl -> src :: tl in
  let rec tail = function
    | [] -> []
    | [ _ ] -> [ dst ]
    | x :: tl -> x :: tail tl
  in
  let both = function [] -> [] | _ :: tl -> src :: tail tl in
  {
    delivered = List.sort_uniq compare (List.map both t.delivered);
    dropped = List.sort_uniq compare (List.map head t.dropped);
    filtered = List.sort_uniq compare (List.map head t.filtered);
    looped = List.sort_uniq compare (List.map head t.looped);
    truncated = t.truncated;
  }

(* ---- the plane: classes, representatives and the per-pair view ----

   A plane keeps what extraction computes and nothing fanned out from
   it. Hosts are indexed in sorted name order. [cls] maps a host to its
   class, and slot [a * n_classes + b] of [reps] holds the representative
   pair of the ordered class pair (a, b), as host indices, with its
   trace. A slot stays empty when every member pair of its class pair
   short-circuits. [subnet] is each host's own prefix, the same-subnet
   rule; a fabricated plane ([of_traces]) has none. The plane is never
   written after it is built. *)
type rep = { rp_src : int; rp_dst : int; rp_trace : trace }

type t = {
  names : string array;
  index : (string, int) Hashtbl.t;
  cls : int array;
  subnet : Netcore.Prefix.t option array;
  n_classes : int;
  reps : rep option array;
}

type pair_class = Same_subnet | Classes of int * int

let make ~names ~cls ~subnet ~n_classes ~reps =
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  { names; index; cls; subnet; n_classes; reps }

let same_subnet dp i j =
  match (dp.subnet.(i), dp.subnet.(j)) with
  | Some p, Some q -> Netcore.Prefix.equal p q
  | _ -> false

(* Host indices of a pair of distinct hosts the plane covers. *)
let indices dp ~src ~dst =
  match (Hashtbl.find_opt dp.index src, Hashtbl.find_opt dp.index dst) with
  | Some i, Some j when i <> j -> Some (i, j)
  | _ -> None

let class_of_indices dp i j =
  if same_subnet dp i j then Same_subnet else Classes (dp.cls.(i), dp.cls.(j))

let pair_class dp ~src ~dst =
  Option.map (fun (i, j) -> class_of_indices dp i j) (indices dp ~src ~dst)

let rep_of dp a b = dp.reps.((a * dp.n_classes) + b)

let trace_at dp i j ~rename =
  match class_of_indices dp i j with
  | Same_subnet -> Some (shortcut_trace dp.names.(i) dp.names.(j))
  | Classes (a, b) ->
      Option.map
        (fun r ->
          if (r.rp_src = i && r.rp_dst = j) || not rename then r.rp_trace
          else rename_trace ~src:dp.names.(i) ~dst:dp.names.(j) r.rp_trace)
        (rep_of dp a b)

let trace dp ~src ~dst =
  Option.bind (indices dp ~src ~dst) (fun (i, j) -> trace_at dp i j ~rename:true)

let representative dp ~src ~dst =
  Option.bind (indices dp ~src ~dst) (fun (i, j) -> trace_at dp i j ~rename:false)

let hosts dp = Array.to_list dp.names

let fold f dp acc =
  let n = Array.length dp.names in
  let acc = ref acc in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match trace_at dp i j ~rename:true with
        | Some t -> acc := f (dp.names.(i), dp.names.(j)) t !acc
        | None -> ()
    done
  done;
  !acc

let class_traces dp =
  Array.fold_right
    (fun r acc -> match r with Some r -> r.rp_trace :: acc | None -> acc)
    dp.reps []

let of_traces pairs =
  let names =
    Array.of_list
      (List.sort_uniq String.compare (List.concat_map (fun ((s, d), _) -> [ s; d ]) pairs))
  in
  let n = Array.length names in
  let dp =
    make ~names ~cls:(Array.init n Fun.id) ~subnet:(Array.make n None) ~n_classes:n
      ~reps:(Array.make (n * n) None)
  in
  List.iter
    (fun ((s, d), t) ->
      match indices dp ~src:s ~dst:d with
      | Some (i, j) -> dp.reps.((i * n) + j) <- Some { rp_src = i; rp_dst = j; rp_trace = t }
      | None -> ())
    pairs;
  dp

(* FEC-collapsed extraction: classify hosts, pick one representative
   member pair per ordered class pair, trace it. Nothing is fanned out:
   the view renames a representative's trace when a member pair is
   read. With [hosts], only those hosts are classified and paired: a
   pair's trace depends on the pair alone, so leaving other hosts out
   changes no trace. *)
let extract ?(max_paths = max_paths_default) ?hosts (net : Device.network) fibs =
  let memo_ok = no_acls net in
  (* One probe accelerator per FIB, shared by classification and every
     walk, with or without packet filters. *)
  let probes = probe_table fibs in
  let lk = probe_lookups net probes in
  let names =
    let all = List.map fst (Smap.bindings net.hosts) in
    match hosts with
    | None -> all
    | Some hs ->
        let keep = Sset.of_list hs in
        List.filter (fun n -> Sset.mem n keep) all
  in
  let infos_arr = Array.of_list (List.map (host_info net) names) in
  let nh = Array.length infos_arr in
  let acls = enumerate_acls net in
  (* Class index per host, in first-seen (canonical host) order. *)
  let cls = Array.make nh 0 in
  let sig_class = Hashtbl.create 64 in
  let n_classes = ref 0 in
  let route_id = route_interner () in
  (* The per-router FIB projections of every host, computed
     router-outer so each FIB is resolved and probed once for all
     hosts (instead of one string-keyed lookup per (host, router)
     cell). Consing in ascending router order leaves each host's
     list in descending order — any fixed order works, signatures
     are only compared against each other. *)
  let route_lists = Array.make nh [] in
  Smap.iter
    (fun name _ ->
      let pb = Hashtbl.find_opt probes name in
      for h = 0 to nh - 1 do
        let proj =
          match pb with
          | None -> None
          | Some pb -> (
              match Fib.probe_lpm pb infos_arr.(h).hi_dest with
              | None -> None
              | Some route -> Some route.Fib.rt_nexthops)
        in
        route_lists.(h) <- route_id proj :: route_lists.(h)
      done)
    net.routers;
  Array.iteri
    (fun h hi ->
      let s = host_signature acls ~routes:route_lists.(h) hi in
      cls.(h) <-
        (match Hashtbl.find_opt sig_class s with
        | Some i -> i
        | None ->
            let i = !n_classes in
            incr n_classes;
            Hashtbl.add sig_class s i;
            i))
    infos_arr;
  let n_classes = !n_classes in
  Netcore.Telemetry.add c_classes n_classes;
  (* One representative member pair per ordered class pair: the first
     pair in canonical order that does not same-subnet short-circuit.
     [by_dst] groups the representatives by destination host. *)
  let chosen = Array.make (n_classes * n_classes) false in
  let by_dst = Array.make nh [] in
  let differing = ref 0 and n_traced = ref 0 in
  for i = 0 to nh - 1 do
    for j = 0 to nh - 1 do
      if i <> j && not (Netcore.Prefix.equal infos_arr.(i).hi_prefix infos_arr.(j).hi_prefix)
      then begin
        incr differing;
        let slot = (cls.(i) * n_classes) + cls.(j) in
        if not chosen.(slot) then begin
          chosen.(slot) <- true;
          incr n_traced;
          by_dst.(j) <- (slot, i) :: by_dst.(j)
        end
      end
    done
  done;
  Netcore.Telemetry.add c_traced !n_traced;
  Netcore.Telemetry.add c_collapsed (!differing - !n_traced);
  (* Trace the representatives destination-major, so each destination's
     suffix memo (when eligible) is built once and shared by its
     representative sources. A destination belongs to exactly one group,
     so its memo is touched by one worker only. *)
  let groups =
    List.filter_map
      (fun j -> if by_dst.(j) = [] then None else Some (j, by_dst.(j)))
      (List.init nh Fun.id)
  in
  let traced_groups =
    Netcore.Pool.chunked_map
      (fun (j, members) ->
        let di = infos_arr.(j) in
        let memo = if memo_ok then Some (dest_memo lk di ~cap:max_paths) else None in
        List.map
          (fun (slot, i) ->
            let si = infos_arr.(i) in
            let t =
              match Option.bind memo (fun node -> memo_trace node ~cap:max_paths ~si) with
              | Some t -> t
              | None -> trace_hosts ~max_paths lk ~si ~di
            in
            (slot, { rp_src = i; rp_dst = j; rp_trace = t }))
          members)
      groups
  in
  let reps = Array.make (n_classes * n_classes) None in
  List.iter (List.iter (fun (slot, r) -> reps.(slot) <- Some r)) traced_groups;
  make ~names:(Array.of_list names) ~cls
    ~subnet:(Array.map (fun hi -> Some hi.hi_prefix) infos_arr)
    ~n_classes ~reps

let paths dp ~src ~dst =
  match trace dp ~src ~dst with Some t -> t.delivered | None -> []

let all_delivered dp =
  fold (fun key t acc -> if t.delivered = [] then acc else (key, t.delivered) :: acc) dp []
  |> List.rev

(* Two member pairs of one (class pair in [a], class pair in [b]) group
   have traces that are the group's first pair's with endpoints renamed
   on both sides, so one comparison per group decides them all. A pair's
   class pair is coded as an int per plane: 0 for a pair the plane
   lacks, 1 for a same-subnet pair, 2 + slot otherwise. *)
let equal_on ~hosts a b =
  let names = Array.of_list hosts in
  let coder dp =
    let idx = Array.map (Hashtbl.find_opt dp.index) names in
    fun x y ->
      match (idx.(x), idx.(y)) with
      | Some i, Some j when i <> j ->
          if same_subnet dp i j then 1 else 2 + (dp.cls.(i) * dp.n_classes) + dp.cls.(j)
      | _ -> 0
  in
  let code_a = coder a and code_b = coder b in
  let width_b = 2 + (b.n_classes * b.n_classes) in
  let seen = Hashtbl.create 64 in
  let n = Array.length names in
  let rec pairs x y =
    if x = n then true
    else if y = n then pairs (x + 1) 0
    else
      let src = names.(x) and dst = names.(y) in
      let key = (code_a x y * width_b) + code_b x y in
      (String.equal src dst
      || Hashtbl.mem seen key
      || begin
           Hashtbl.add seen key ();
           List.equal (List.equal String.equal) (paths a ~src ~dst) (paths b ~src ~dst)
         end)
      && pairs x (y + 1)
  in
  pairs 0 0
