open Netcore
module Smap = Routing.Device.Smap

type outcome = {
  configs : Configlang.Ast.config list;
  iterations : int;
  filters_added : int;
  engine : Routing.Engine.t;
}

module Key = struct
  type t = string * Prefix.t

  let compare (r1, p1) (r2, p2) =
    match String.compare r1 r2 with 0 -> Prefix.compare p1 p2 | c -> c
end

module Kmap = Map.Make (Key)

module Pset = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let c_iterations = Telemetry.counter "equiv.iterations"
let c_filters = Telemetry.counter "equiv.filters_added"
let c_delta = Telemetry.counter "equiv.delta_routers"

let nexthop_map snap =
  List.fold_left
    (fun acc (r, hp, nxts) -> Kmap.add (r, hp) nxts acc)
    Kmap.empty
    (Routing.Simulate.host_routes snap)

let restrict_to host_prefixes m =
  let s = Prefix.Set.of_list host_prefixes in
  Kmap.filter (fun (_, p) _ -> Prefix.Set.mem p s) m

let fib_equal_on_hosts ~orig snap =
  let hps = List.map fst (Routing.Simulate.host_prefixes orig.Routing.Simulate.net) in
  let a = restrict_to hps (nexthop_map orig) in
  let b = restrict_to hps (nexthop_map snap) in
  Kmap.equal (List.equal String.equal) a b

(* One router's rows of the [host_routes] relation, in host-prefix order —
   exactly the rows [Routing.Simulate.host_routes] would sort together
   under this router's name, so concatenating per-router results in name
   order reproduces the full sorted relation. *)
let router_row hps fibs r =
  match Smap.find_opt r fibs with
  | None -> []
  | Some fib ->
      List.filter_map
        (fun (hp, _) ->
          match Routing.Fib.find fib hp with
          | Some (route : Routing.Fib.route) when route.rt_nexthops <> [] ->
              Some (hp, Routing.Fib.nexthop_names route)
          | Some _ | None -> None)
        hps

let fix ?engine ?cache ~orig ~fake_edges configs =
  Telemetry.with_span "equiv.fix" @@ fun () ->
  (* The paper bounds the iteration count by the number of added edges. *)
  let max_iters = (2 * List.length fake_edges) + 8 in
  let fake_set =
    List.fold_left
      (fun s (u, v) ->
        Pset.add (if String.compare u v <= 0 then (u, v) else (v, u)) s)
      Pset.empty fake_edges
  in
  let fake u v =
    Pset.mem (if String.compare u v <= 0 then (u, v) else (v, u)) fake_set
  in
  let orig_nexthops = nexthop_map orig in
  let orig_set r hp =
    Option.value ~default:[] (Kmap.find_opt (r, hp) orig_nexthops)
  in
  let initial =
    match engine with
    | Some e -> Routing.Engine.apply_edit e configs
    | None -> Routing.Engine.of_configs ?cache configs
  in
  (* The fixpoint. The per-router rows and wrong-set entries are
     persistent maps; after the first full scan, each iteration only
     recomputes the routers in the engine's FIB delta — a row is a pure
     function of the router's FIB and the (loop-invariant) host-prefix
     list, so an unchanged FIB means an unchanged row. The scan is
     sharded over contiguous router chunks ([Pool.chunked_map], the
     [Ospf.select_all] convention), whose order-preserving fold-back
     keeps the result independent of the job count. *)
  let fix_from eng0 configs =
    let pool = Routing.Engine.pool eng0 in
    let snap0 = Routing.Engine.snapshot eng0 in
    let hps = Routing.Simulate.host_prefixes snap0.net in
    let wrong_of r row =
      List.concat_map
        (fun (hp, nxts) ->
          let ok = orig_set r hp in
          List.filter_map
            (fun nxt ->
              if (not (List.mem nxt ok)) && fake r nxt then Some (r, hp, nxt)
              else None)
            nxts)
        row
    in
    let scan fibs names =
      Telemetry.with_span "equiv.scan" @@ fun () ->
      Telemetry.add c_delta (List.length names);
      Pool.chunked_map ?pool
        (fun r ->
          let row = router_row hps fibs r in
          (r, row, wrong_of r row))
        names
    in
    (* [rows]/[wrongs]/[anon] are threaded incrementally: a rescanned
       router's old row keys leave the anon-side next-hop map and its new
       row's enter it, so convergence never reassembles the full
       relation. *)
    let merge (rows, wrongs, anon) scanned =
      List.fold_left
        (fun (rows, wrongs, anon) (r, row, w) ->
          let anon =
            match Smap.find_opt r rows with
            | None -> anon
            | Some old ->
                List.fold_left (fun m (hp, _) -> Kmap.remove (r, hp) m) anon old
          in
          let anon =
            List.fold_left (fun m (hp, nxts) -> Kmap.add (r, hp) nxts m) anon row
          in
          (Smap.add r row rows, Smap.add r w wrongs, anon))
        (rows, wrongs, anon) scanned
    in
    let all_names fibs = List.map fst (Smap.bindings fibs) in
    (* The convergence predicate of [fib_equal_on_hosts], with the orig
       side reused from the map built once above and the anon side the
       incrementally maintained map. *)
    let converged anon =
      let hps_orig =
        List.map fst (Routing.Simulate.host_prefixes orig.Routing.Simulate.net)
      in
      Kmap.equal (List.equal String.equal)
        (restrict_to hps_orig orig_nexthops)
        (restrict_to hps_orig anon)
    in
    let rec loop eng configs rows wrongs anon iter filters =
      Telemetry.incr c_iterations;
      let wrong = List.concat_map snd (Smap.bindings wrongs) in
      if wrong = [] then
        if converged anon then
          Ok { configs; iterations = iter; filters_added = filters; engine = eng }
        else
          Error
            "route_equiv: FIBs differ from the original but no fake-edge \
             next hop is left to filter"
      else if iter >= max_iters then
        Error
          (Printf.sprintf "route_equiv: no convergence after %d iterations" iter)
      else
        let net = (Routing.Engine.snapshot eng).Routing.Simulate.net in
        let configs =
          Edits.update_all configs
            (List.filter_map
               (fun (r, hp, nxt) -> Attach.deny_edit net ~router:r ~toward:nxt hp)
               wrong)
        in
        Telemetry.add c_filters (List.length wrong);
        match Routing.Engine.apply_edit eng configs with
        | Error m -> Error ("route_equiv: simulation failed: " ^ m)
        | Ok eng ->
            let fibs = Routing.Engine.fibs eng in
            let names =
              match Routing.Engine.delta eng with
              | Some d -> d
              | None -> all_names fibs
            in
            let rows, wrongs, anon =
              merge (rows, wrongs, anon) (scan fibs names)
            in
            loop eng configs rows wrongs anon (iter + 1)
              (filters + List.length wrong)
    in
    let rows, wrongs, anon =
      merge
        (Smap.empty, Smap.empty, Kmap.empty)
        (scan snap0.fibs (all_names snap0.fibs))
    in
    loop eng0 configs rows wrongs anon 1 0
  in
  match initial with
  | Error m -> Error ("route_equiv: simulation failed: " ^ m)
  | Ok eng0 -> fix_from eng0 configs
