(* Shared runners and a memo cache for the benchmark harness: every figure
   reuses pipeline runs, so each (network, k_r, k_h, variant) combination
   is executed once. The caches are mutex-protected so [prefetch] can fill
   them from the worker pool. *)

module Ast = Configlang.Ast
module Smap = Routing.Device.Smap

type variant = Confmask_v | Strawman1_v | Strawman2_v

let variant_name = function
  | Confmask_v -> "ConfMask"
  | Strawman1_v -> "Strawman1"
  | Strawman2_v -> "Strawman2"

type run = {
  entry : Netgen.Nets.entry;
  k_r : int;
  k_h : int;
  orig_configs : Ast.config list;
  anon_configs : Ast.config list;
  orig_snapshot : Routing.Simulate.snapshot;
  anon_snapshot : Routing.Simulate.snapshot;
  fake_edges : (string * string) list;
  seconds : float;
  stats : (string * int) list;  (* telemetry counter deltas of this run *)
}

let seed = 42

(* Telemetry counters are process-global, so a run's contribution is the
   delta across it. Exact when the run is the only work in flight;
   approximate under parallel [prefetch], where concurrent pipelines tick
   the same counters. *)
let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      if v > v0 then Some (name, v - v0) else None)
    after

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

let hit_rate stats ~reuse ~miss =
  let r = stat stats reuse and m = stat stats miss in
  if r + m = 0 then 0.0 else float_of_int r /. float_of_int (r + m)

(* The pipeline with a pluggable route-fixing stage (step 2.1), so the
   strawman baselines slot into the exact same workflow. All simulations
   run through one incremental engine threaded across the stages. *)
let pipeline ~variant ~k_r ~k_h configs =
  let rng = Netcore.Rng.create seed in
  let counters0 = Netcore.Telemetry.counters () in
  let t0 = Unix.gettimeofday () in
  match Routing.Engine.of_configs configs with
  | Error m -> Error m
  | Ok eng0 -> (
      let orig = Routing.Engine.snapshot eng0 in
      let topo = Confmask.Topo_anon.anonymize ~rng ~k:k_r ~orig configs in
      let fixed =
        match variant with
        | Confmask_v ->
            Result.map
              (fun (o : Confmask.Route_equiv.outcome) ->
                (o.configs, o.engine))
              (Confmask.Route_equiv.fix ~engine:eng0 ~orig
                 ~fake_edges:topo.fake_edges topo.configs)
        | Strawman1_v ->
            Result.map
              (fun (o : Confmask.Strawman.outcome) -> (o.configs, eng0))
              (Confmask.Strawman.strawman1 ~engine:eng0 ~orig
                 ~fake_edges:topo.fake_edges topo.configs)
        | Strawman2_v ->
            Result.map
              (fun (o : Confmask.Strawman.outcome) -> (o.configs, eng0))
              (Confmask.Strawman.strawman2 ~engine:eng0 ~orig
                 ~fake_edges:topo.fake_edges topo.configs)
      in
      match fixed with
      | Error m -> Error m
      | Ok (fixed_configs, engine) -> (
          match
            Confmask.Route_anon.anonymize ~rng ~k_h
              ~p:Confmask.Workflow.default_params.noise ~engine fixed_configs
          with
          | Error m -> Error m
          | Ok anon ->
              let anon_snapshot = Routing.Engine.snapshot anon.engine in
              let seconds = Unix.gettimeofday () -. t0 in
              let stats = counter_delta counters0 (Netcore.Telemetry.counters ()) in
              Ok (orig, anon.configs, anon_snapshot, topo.fake_edges, seconds, stats)))

let cache : (string * int * int * variant, run) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let locked f = Mutex.protect lock f

let get ?(variant = Confmask_v) ~k_r ~k_h id =
  let key = (id, k_r, k_h, variant) in
  match locked (fun () -> Hashtbl.find_opt cache key) with
  | Some r -> r
  | None ->
      let entry = Netgen.Nets.find id in
      let configs = Netgen.Nets.configs entry in
      let r =
        match pipeline ~variant ~k_r ~k_h configs with
        | Ok (orig_snapshot, anon_configs, anon_snapshot, fake_edges, seconds, stats)
          ->
            {
              entry;
              k_r;
              k_h;
              orig_configs = configs;
              anon_configs;
              orig_snapshot;
              anon_snapshot;
              fake_edges;
              seconds;
              stats;
            }
        | Error m ->
            failwith
              (Printf.sprintf "%s (net %s, k_r=%d, k_h=%d): %s"
                 (variant_name variant) id k_r k_h m)
      in
      locked (fun () ->
          if not (Hashtbl.mem cache key) then Hashtbl.replace cache key r);
      r

let prefetch ?pool combos =
  (* Warm the run cache from the pool: distinct (network, k) pipelines are
     independent, and every figure afterwards hits the cache. Results are
     deterministic, so a racing duplicate computation is only wasted work,
     never a wrong answer. *)
  ignore
    (Netcore.Pool.parallel_map ?pool
       (fun (id, k_r, k_h) -> ignore (get ~k_r ~k_h id))
       combos)

let orig_dp_cache : (string, Routing.Dataplane.t) Hashtbl.t = Hashtbl.create 16

let orig_dp r =
  match locked (fun () -> Hashtbl.find_opt orig_dp_cache r.entry.id) with
  | Some dp -> dp
  | None ->
      let dp = Routing.Simulate.dataplane r.orig_snapshot in
      locked (fun () -> Hashtbl.replace orig_dp_cache r.entry.id dp);
      dp

let anon_dp_cache : (string * int * int, Routing.Dataplane.t) Hashtbl.t =
  Hashtbl.create 64

let anon_dp r =
  let key = (r.entry.id, r.k_r, r.k_h) in
  match locked (fun () -> Hashtbl.find_opt anon_dp_cache key) with
  | Some dp -> dp
  | None ->
      let dp = Routing.Simulate.dataplane r.anon_snapshot in
      locked (fun () -> Hashtbl.replace anon_dp_cache key dp);
      dp

let real_hosts r = List.map fst (Smap.bindings r.orig_snapshot.net.hosts)

(* NetHide baseline: obfuscate the router topology, then answer host-level
   forwarding with single deterministic shortest paths in the virtual
   topology. *)
let nethide_paths r =
  let g = Routing.Device.router_graph r.orig_snapshot.net in
  let hosts = real_hosts r in
  let gateway h =
    fst (List.hd (Smap.find h r.orig_snapshot.net.attachments))
  in
  let flows =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v ->
            if u < v then Some (gateway u, gateway v) else None)
          hosts)
      hosts
    |> List.sort_uniq compare
  in
  let rng = Netcore.Rng.create seed in
  let params = { Nethide.default_params with candidates = 128 } in
  let g' = Nethide.obfuscate ~params ~rng g ~flows in
  List.concat_map
    (fun s ->
      List.filter_map
        (fun d ->
          if String.equal s d then None
          else
            match Nethide.forwarding_path g' (gateway s) (gateway d) with
            | Some p -> Some ((s, d), [ (s :: p) @ [ d ] ])
            | None -> Some ((s, d), []))
        hosts)
    hosts

let all_ids = [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ]
let fast_ids = [ "A"; "B"; "C"; "G" ]
