open Netcore
module Smap = Device.Smap
module Ast = Configlang.Ast
module Sset = Set.Make (String)

module Dmap = Map.Make (struct
  type t = [ `As of int | `Residual | `Global ]

  let compare = compare
end)

(* Structural fingerprints over the *compiled* router, so textually
   different but semantically identical configs (resolved ACLs, defaulted
   costs) hash equal. Everything in [Device.router] is immutable data, so
   Marshal is a sound structural serializer. *)
let digest v = Digest.string (Marshal.to_string v [])

(* Cache-layer hit/miss counters. Reuse counters and their recompute
   denominators come in pairs so reports can form hit rates. *)
let c_spf_reuse = Telemetry.counter "engine.spf_reuse"
let c_spf_full = Telemetry.counter "engine.spf_full"

(* SPF refreshes that extended the previous distance fields across added
   adjacencies instead of a full [Ospf.prepare]. *)
let c_spf_extend = Telemetry.counter "engine.spf_extend"
let c_sel_patch = Telemetry.counter "engine.sel_patch"
let c_dv_recompute = Telemetry.counter "engine.dv_recompute"
let c_bgp_skip = Telemetry.counter "engine.bgp_skip"
let c_bgp_compute = Telemetry.counter "engine.bgp_compute"
let c_fib_reuse = Telemetry.counter "engine.fib_reuse"
let c_fib_build = Telemetry.counter "engine.fib_build"

(* Base FIBs patched on the prefixes whose selected route changed
   instead of built: [fib_build] counts full constructions only. *)
let c_fib_patch = Telemetry.counter "engine.fib_patch"
let c_edits = Telemetry.counter "engine.edits"

(* Persistent-cache hits, one counter per entry kind. Each is the disk
   sibling of an in-memory recompute: state_disk vs a whole from-scratch
   build, bgp_disk vs bgp_compute. *)
let c_state_disk = Telemetry.counter "engine.state_disk"
let c_bgp_disk = Telemetry.counter "engine.bgp_disk"

(* ---- persistent cross-run cache ----

   Content-addressed entries in a [Netcore.Diskcache] directory. Keys are
   derived from the same structural fingerprints the in-memory reuse
   gates compare, so an entry is valid whenever the gate would have
   fired: a key collision implies input equality, which implies output
   equality (every computation keyed here is a deterministic function of
   the fingerprinted inputs). Two entry kinds, both read and written in
   [build], distinguished by a key namespace tag so their [Marshal]ed
   payload types can never mix:

   - ["state:"] — the whole engine state (domains, others FIBs, base and
     final FIBs, BGP routes) of a from-scratch build, keyed by every
     router's full fingerprint. Only written for [prev = None] builds:
     keying one entry per fixpoint iteration would balloon the store
     with megabyte-scale states that in-memory reuse already covers.
   - ["bgp:"] — the global BGP fixpoint result, keyed like ["state:"]
     (full fingerprints: BGP depends on the IGP-resolved base FIBs,
     which equal fingerprints imply).

   Per-domain SPF states and DV routes are not stored on their own:
   they live inside the ["state:"] entry of the build that computed
   them, and an edit reuses them in memory.

   Bump [cache_version] whenever any marshaled type or fingerprint
   definition changes — the versioned index then invalidates the whole
   directory. *)

(* The disk store's envelope is portable ({!Netcore.Codec}), but every
   payload the engine persists is still [Marshal]ed, so the engine —
   not the store — must pin the compiler version until the payloads get
   a portable codec of their own. *)
let cache_version = "confmask-engine-8/ocaml-" ^ Sys.ocaml_version
let open_cache dir = Diskcache.open_dir ~version:cache_version dir

let disk_get : type a. Diskcache.t option -> string -> a option =
 fun cache key ->
  match cache with
  | None -> None
  | Some c -> (
      match Diskcache.find c key with
      | None -> None
      | Some s -> ( try Some (Marshal.from_string s 0 : a) with _ -> None))

let disk_put cache key v =
  match cache with
  | None -> ()
  | Some c -> Diskcache.add c ~key (Marshal.to_string v [])

let full_fp (r : Device.router) = digest r

(* What the SPF state of a domain depends on: presence of an OSPF process,
   its [network] statements, and every interface's name/address/cost.
   Distribute-lists are deliberately excluded — they only affect route
   selection, not the Dijkstras. *)
let spf_fp (r : Device.router) =
  digest
    ( Option.map (fun (o : Device.ospf_proc) -> o.op_networks) r.r_ospf,
      List.map
        (fun (i : Device.iface) -> (i.ifc_name, i.ifc_addr, i.ifc_plen, i.ifc_cost))
        r.r_ifaces )

(* Distance-vector protocols propagate filters, so any DV-relevant change
   at one member invalidates the whole domain. *)
let dv_fp (r : Device.router) =
  digest
    ( r.r_rip,
      r.r_eigrp,
      List.map
        (fun (i : Device.iface) ->
          (i.ifc_name, i.ifc_addr, i.ifc_plen, i.ifc_delay))
        r.r_ifaces )

type dom_cache = {
  dc_members : string list;
  dc_spf : string;  (* combined members' spf_fp *)
  dc_state : Ospf.state option;  (* None when no member runs OSPF *)
  (* member -> its distribute-lists, what its OSPF selection depends on
     beyond the SPF state; the selection itself lives only in the
     member's base FIB *)
  dc_sel : (string * Ast.prefix_list) list Smap.t;
  dc_dv : string;  (* combined members' dv_fp *)
  dc_rip : Fib.route list Smap.t;
  dc_eigrp : Fib.route list Smap.t;
}

(* How a member's OSPF selection moved since the previous state: not at
   all, on a bounded set of prefixes (the ones whose SPF field changed
   and the ones a filter change can touch), or beyond what can be
   bounded. *)
type selection = Same | Patch of Prefix.t list | Full

type t = {
  pool : Pool.t option;
  cache : Diskcache.t option;
  configs : Ast.config list;
  net : Device.network;
  fps : string Smap.t;  (* full fingerprint per router *)
  doms : dom_cache Dmap.t;
  (* Per-router others FIB (connected, static, RIP and EIGRP routes),
     physically the previous state's when structurally equal to it. *)
  others : Fib.t Smap.t;
  base : Fib.t Smap.t;
  bgp : Fib.route list Smap.t;
  fibs : Fib.t Smap.t;
  (* Routers whose final FIB changed relative to the previous engine
     state; [None] for from-scratch builds (no previous state to diff
     against — consumers must treat every router as changed). *)
  delta : string list option;
}

let snapshot t = Simulate.make_snapshot ~net:t.net ~fibs:t.fibs
let configs t = t.configs
let network t = t.net
let fibs t = t.fibs
let pool t = t.pool
let delta t = t.delta

(* ---- per-domain computation with cache reuse ---- *)

let compute_domain ?pool ~prev (net : Device.network)
    (d : Simulate.igp_domain) =
  let routers =
    List.filter_map
      (fun m -> Option.map (fun r -> (m, r)) (Smap.find_opt m net.routers))
      d.dom_members
  in
  let spf = digest (List.map (fun (m, r) -> (m, spf_fp r)) routers) in
  let dv = digest (List.map (fun (m, r) -> (m, dv_fp r)) routers) in
  let prev =
    match prev with
    | Some c when c.dc_members = d.dom_members -> Some c
    | _ -> None
  in
  let has f = List.exists (fun (_, r) -> f r) routers in
  let state, sel =
    if not (has (fun r -> r.Device.r_ospf <> None)) then
      (* No selection: it stayed empty when the previous state had none
         either. *)
      let status =
        match prev with Some c when c.dc_state = None -> Same | _ -> Full
      in
      (None, List.map (fun (m, _) -> (m, None, status)) routers)
    else
      let filters_of (r : Device.router) =
        match r.r_ospf with Some o -> o.op_filters | None -> []
      in
      let select reuse =
        Pool.parallel_map ?pool
          (fun (m, r) ->
            let filters = filters_of r in
            (m, Some filters, reuse m filters))
          routers
      in
      (* A member's selection moves on the prefixes whose SPF distances
         changed and those its filter change can touch; it is redone in
         full when the filter change cannot be bounded. Most members
         have no distribute-list, and [==] decides those without a
         structural walk. *)
      let reuse_with c spf_changed m filters =
        match Smap.find_opt m c.dc_sel with
        | Some old -> (
            let same = old == filters || old = filters in
            if same && spf_changed = [] then Same
            else
              match
                if same then Some []
                else Ospf.changed_filter_prefixes old filters
              with
              | Some affected ->
                  Telemetry.incr c_sel_patch;
                  Patch (spf_changed @ affected)
              | None -> Full)
        | None -> Full
      in
      let full () =
        Telemetry.incr c_spf_full;
        (Some (Ospf.prepare ~scope:d.dom_scope ?pool net), select (fun _ _ -> Full))
      in
      match prev with
      | Some c when String.equal c.dc_spf spf && c.dc_state <> None ->
          Telemetry.incr c_spf_reuse;
          (c.dc_state, select (reuse_with c []))
      | Some c when c.dc_state <> None -> (
          (* SPF inputs changed. When the edit kept every adjacency
             (stub attachments) and at most added some (fake links), the
             distance fields no added edge relaxes survive. A router
             whose adjacency row changed redoes its whole selection;
             every other member patches the prefixes whose fields
             changed. *)
          match
            Ospf.prepare_update ~scope:d.dom_scope ?pool
              ~prev:(Option.get c.dc_state) net
          with
          | Some (st, changed, []) ->
              Telemetry.incr c_spf_reuse;
              (Some st, select (reuse_with c changed))
          | Some (st, changed, moved) ->
              Telemetry.incr c_spf_extend;
              let moved = Sset.of_list moved in
              ( Some st,
                select (fun m filters ->
                    if Sset.mem m moved then Full else reuse_with c changed m filters) )
          | None -> full ())
      | _ -> full ()
  in
  let rip, eigrp =
    match prev with
    | Some c when String.equal c.dc_dv dv -> (c.dc_rip, c.dc_eigrp)
    | _ ->
        if not (has (fun r -> (r.Device.r_rip <> None) || r.r_eigrp <> None))
        then (Smap.empty, Smap.empty)
        else begin
          Telemetry.incr c_dv_recompute;
          ( (if has (fun r -> r.Device.r_rip <> None) then
               Rip.compute ~scope:d.dom_scope net
             else Smap.empty),
            if has (fun r -> r.Device.r_eigrp <> None) then
              Eigrp.compute ~scope:d.dom_scope net
            else Smap.empty )
        end
  in
  ( {
      dc_members = d.dom_members;
      dc_spf = spf;
      dc_state = state;
      dc_sel =
        List.fold_left
          (fun acc (m, s, _) -> match s with Some s -> Smap.add m s acc | None -> acc)
          Smap.empty sel;
      dc_dv = dv;
      dc_rip = rip;
      dc_eigrp = eigrp;
    },
    List.fold_left (fun acc (m, _, status) -> Smap.add m status acc) Smap.empty sel )

(* The whole-state payload of a from-scratch build. [net] is recompiled
   from the configs on restore (cheap, deterministic) and [fps] is what
   the key was derived from, so neither is stored. *)
type persisted_state = {
  ps_doms : dom_cache Dmap.t;
  ps_others : Fib.t Smap.t;
  ps_base : Fib.t Smap.t;
  ps_bgp : Fib.route list Smap.t;
  ps_fibs : Fib.t Smap.t;
}

let state_key fps = "state:" ^ Digest.to_hex (digest (Smap.bindings fps))
let bgp_key fps = "bgp:" ^ Digest.to_hex (digest (Smap.bindings fps))

let build ?pool ?cache ?prev configs =
  Telemetry.with_span "engine.build" @@ fun () ->
  let compiled_net =
    Telemetry.with_span "engine.compile" @@ fun () ->
    Result.map
      (fun (net : Device.network) -> (net, Smap.map full_fp net.routers))
      (Device.compile configs)
  in
  match compiled_net with
  | Error m -> Error m
  | Ok (net, fps) ->
      let restored =
        (* Whole-state restore is only sound (and only worth storing) for
           from-scratch builds: with a [prev] the in-memory deltas are
           cheaper than deserializing megabytes of state. *)
        match prev with
        | None -> (disk_get cache (state_key fps) : persisted_state option)
        | Some _ -> None
      in
      match restored with
      | Some ps ->
          Telemetry.incr c_state_disk;
          Ok
            {
              pool;
              cache;
              configs;
              net;
              fps;
              doms = ps.ps_doms;
              others = ps.ps_others;
              base = ps.ps_base;
              bgp = ps.ps_bgp;
              fibs = ps.ps_fibs;
              delta = None;
            }
      | None ->
      let unchanged =
        (* Routers whose whole config (hence statics, ACLs, everything
           entering a FIB) is identical to the previous engine state. *)
        match prev with
        | None -> fun _ -> false
        | Some p -> (
            fun name ->
              match (Smap.find_opt name fps, Smap.find_opt name p.fps) with
              | Some a, Some b -> String.equal a b
              | _ -> false)
      in
      let prev_doms = match prev with Some p -> p.doms | None -> Dmap.empty in
      let domains =
        Telemetry.with_span "engine.domains" @@ fun () ->
        Pool.parallel_map ?pool
          (fun (d : Simulate.igp_domain) ->
            ( d.dom_key,
              compute_domain ?pool ~prev:(Dmap.find_opt d.dom_key prev_doms) net d ))
          (Simulate.igp_domains net)
      in
      let doms =
        List.fold_left (fun acc (k, (dc, _)) -> Dmap.add k dc acc) Dmap.empty domains
      in
      let prior tbl name =
        match prev with Some p -> Smap.find_opt name (tbl p) | None -> None
      in
      let others =
        Telemetry.with_span "engine.candidates" @@ fun () ->
        Dmap.fold
          (fun _ dc acc ->
            List.fold_left
              (fun acc m ->
                match Smap.find_opt m net.routers with
                | None -> acc
                | Some r ->
                    let routes tbl = Option.value ~default:[] (Smap.find_opt m tbl) in
                    let o =
                      Simulate.others_fib net r (routes dc.dc_rip @ routes dc.dc_eigrp)
                    in
                    let o =
                      match prior (fun p -> p.others) m with
                      | Some o' when o' = o -> o'
                      | _ -> o
                    in
                    Smap.add m o acc)
              acc dc.dc_members)
          doms Smap.empty
      in
      let base =
        Telemetry.with_span "engine.base_fibs" @@ fun () ->
        List.fold_left
          (fun acc (_, ((dc : dom_cache), status)) ->
            (* Per member: reuse the previous FIB when neither its
               selection nor its others FIB moved, patch the slots that
               did, and build the rest in one sharded sweep. Without an
               SPF state the base FIB is the others FIB itself. *)
            let plan =
              List.filter_map
                (fun m ->
                  Option.map
                    (fun o ->
                      let sel = Option.value ~default:Full (Smap.find_opt m status) in
                      let step =
                        match (sel, prior (fun p -> p.base) m, prior (fun p -> p.others) m) with
                        | Same, Some fib, Some o' when o == o' -> `Reuse fib
                        | (Same | Patch _), Some fib, Some o' when dc.dc_state <> None ->
                            let ps = match sel with Patch ps -> ps | Same | Full -> [] in
                            `Patch (fib, if o == o' then ps else ps @ Fib.changed_prefixes o' o)
                        | _ -> `Full
                      in
                      (m, o, step))
                    (Smap.find_opt m others))
                dc.dc_members
            in
            let built =
              let fulls =
                List.filter_map
                  (fun (m, o, step) -> match step with `Full -> Some (m, o) | _ -> None)
                  plan
              in
              List.fold_left2
                (fun acc (m, _) fib -> Smap.add m fib acc)
                Smap.empty fulls
                (Simulate.base_fibs ?pool net dc.dc_state fulls)
            in
            Pool.parallel_map ?pool
              (fun (m, o, step) ->
                match step with
                | `Reuse fib ->
                    Telemetry.incr c_fib_reuse;
                    (m, fib)
                | `Patch (fib, ps) ->
                    let fib' =
                      Ospf.patch_base (Option.get dc.dc_state) net m ~others:o fib ps
                    in
                    Telemetry.incr (if fib' == fib then c_fib_reuse else c_fib_patch);
                    (m, fib')
                | `Full ->
                    Telemetry.incr c_fib_build;
                    (m, Smap.find m built))
              plan
            |> List.fold_left (fun acc (m, fib) -> Smap.add m fib acc) acc)
          Smap.empty domains
      in
      (* A router's base FIB equals the previous engine's, physically (the
         reuse above) or structurally (the FIB representation is
         canonical, so equal candidates give equal values). Both gates
         below reduce to this one predicate — the old physical-only [==]
         test silently degraded to a recompute whenever a structurally
         identical FIB arrived through a fresh build. *)
      let base_same =
        match prev with
        | None -> fun _ _ -> false
        | Some p -> (
            fun name fib ->
              match Smap.find_opt name p.base with
              | Some f -> f == fib || f = fib
              | None -> false)
      in
      let has_bgp =
        Smap.exists (fun _ (r : Device.router) -> r.r_bgp <> None) net.routers
      in
      let bgp, fibs =
        if not has_bgp then (Smap.empty, base)
        else
          let bgp =
            (* BGP is a global fixpoint over the IGP-resolved base FIBs:
               it is redone whenever any router changed at all, and only
               skipped on a no-op edit. Equal full fingerprints already
               imply equal compiled routers, hence equal base FIBs — no
               fragile physical-identity conjunct needed. *)
            match prev with
            | Some p when Smap.equal String.equal fps p.fps ->
                Telemetry.incr c_bgp_skip;
                p.bgp
            | _ -> (
                (* Equal full fingerprints imply equal compiled routers,
                   hence equal base FIBs — the same argument that makes the
                   in-memory skip above sound makes [fps] a complete key
                   for the persisted result. *)
                match
                  (disk_get cache (bgp_key fps) : Fib.route list Smap.t option)
                with
                | Some b ->
                    Telemetry.incr c_bgp_disk;
                    b
                | None ->
                    Telemetry.incr c_bgp_compute;
                    let b =
                      Telemetry.with_span "engine.bgp" (fun () ->
                          Bgp.compute net ~igp_fibs:base)
                    in
                    disk_put cache (bgp_key fps) b;
                    b)
          in
          let fibs =
            Telemetry.with_span "engine.final_fibs" @@ fun () ->
            Smap.mapi
              (fun name fib ->
                let bc = Option.value ~default:[] (Smap.find_opt name bgp) in
                let reusable =
                  match prev with
                  | Some p
                    when unchanged name && base_same name fib
                         && Option.value ~default:[] (Smap.find_opt name p.bgp)
                            = bc -> Smap.find_opt name p.fibs
                  | _ -> None
                in
                match reusable with
                | Some final ->
                    Telemetry.incr c_fib_reuse;
                    final
                | None ->
                    Telemetry.incr c_fib_build;
                    Fib.add_candidates bc fib)
              base
          in
          (bgp, fibs)
      in
      (match prev with
      | None ->
          disk_put cache (state_key fps)
            {
              ps_doms = doms;
              ps_others = others;
              ps_base = base;
              ps_bgp = bgp;
              ps_fibs = fibs;
            }
      | Some _ -> ());
      (* The FIB delta of this build. The final-FIB representation is
         canonical (sorted keys, bodies numbered in slot order), so
         structural equality is a sound change test whatever path
         produced the value; the physical check first makes the common
         reuse case O(1). *)
      let delta =
        match prev with
        | None -> None
        | Some p ->
            let changed =
              Smap.merge
                (fun name f f' ->
                  match (f, f') with
                  | Some a, Some b when a == b || a = b -> None
                  | None, None -> None
                  | _ -> Some name)
                p.fibs fibs
            in
            Some (List.map fst (Smap.bindings changed))
      in
      Ok
        {
          pool;
          cache;
          configs;
          net;
          fps;
          doms;
          others;
          base;
          bgp;
          fibs;
          delta;
        }

let of_configs ?pool ?cache configs = build ?pool ?cache configs

(* ---- shadow self-check ---- *)

(* Independent of telemetry: the self-check fires whether or not spans
   and counters are recorded. *)
let selfcheck = Atomic.make false
let set_selfcheck b = Atomic.set selfcheck b

let selfcheck_divergence t =
  match Simulate.run ?pool:t.pool t.configs with
  | Error m -> Some (Printf.sprintf "reference simulation failed: %s" m)
  | Ok reference ->
      let divergent =
        Smap.merge
          (fun name inc ref_ ->
            match (inc, ref_) with
            | Some a, Some b when a = b -> None
            | None, None -> None
            | _ -> Some name)
          t.fibs reference.fibs
      in
      if Smap.is_empty divergent then None
      else
        Some
          ("FIB divergence at "
          ^ String.concat ", " (List.map fst (Smap.bindings divergent)))

let apply_edit t configs =
  Telemetry.incr c_edits;
  match
    build ?pool:t.pool ?cache:t.cache ~prev:t configs
  with
  | Error _ as e -> e
  | Ok t' as ok ->
      if Atomic.get selfcheck then
        Telemetry.with_span "engine.selfcheck" (fun () ->
            match selfcheck_divergence t' with
            | None -> ()
            | Some msg ->
                failwith
                  ("Engine.apply_edit self-check failed: incremental result \
                    diverges from Simulate.run — " ^ msg));
      ok

let of_configs_exn ?pool ?cache configs =
  match of_configs ?pool ?cache configs with
  | Ok t -> t
  | Error m -> failwith m

let apply_edit_exn t configs =
  match apply_edit t configs with Ok t -> t | Error m -> failwith m
