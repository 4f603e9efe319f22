open Netcore
module Smap = Routing.Device.Smap

type outcome = {
  configs : Configlang.Ast.config list;
  iterations : int;
  filters_added : int;
  engine : Routing.Engine.t;
}

module Pset = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let c_iterations = Telemetry.counter "equiv.iterations"
let c_filters = Telemetry.counter "equiv.filters_added"
let c_delta = Telemetry.counter "equiv.delta_routers"

(* One router's next hops toward the host prefixes [hps], in [hps]
   order: the [(host prefix, sorted next-hop routers)] entries of the
   [⟨r, h_d, nxt⟩ ∈ DP] triples Algorithm 1 iterates, for routes that
   have next hops. *)
let router_row hps fib =
  List.filter_map
    (fun (hp, _) ->
      match Routing.Fib.find fib hp with
      | Some (route : Routing.Fib.route) when route.rt_nexthops <> [] ->
          Some (hp, Routing.Fib.nexthop_names route)
      | Some _ | None -> None)
    hps

let snapshot_rows (snap : Routing.Simulate.snapshot) =
  let hps = Routing.Simulate.host_prefixes snap.net in
  Smap.map (router_row hps) snap.fibs

(* The rows compared with the original's: entries toward the original's
   host prefixes, once per prefix (hosts sharing a subnet repeat it in
   [host_prefixes] order, adjacent). *)
let restrict orig_prefixes row =
  let rec go = function
    | (hp, _) :: ((hp', _) :: _ as tl) when Prefix.equal hp hp' -> go tl
    | ((hp, _) as e) :: tl ->
        if Prefix.Set.mem hp orig_prefixes then e :: go tl else go tl
    | [] -> []
  in
  go row

(* [agrees orig anon]: every router's row, restricted to the original's
   host prefixes, equals its original row, a router missing on either
   side counting as [[]]. [orig] is already restricted. *)
let agrees orig_prefixes orig anon =
  let row m r = Option.value ~default:[] (Smap.find_opt r m) in
  Smap.for_all (fun r a -> restrict orig_prefixes a = row orig r) anon
  && Smap.for_all (fun r o -> o = [] || Smap.mem r anon) orig

(* [row] without its entries below [hp]: rows are in host-prefix order. *)
let rec drop_below hp = function
  | (p, _) :: tl when Prefix.compare p hp < 0 -> drop_below hp tl
  | row -> row

let original_prefixes (orig : Routing.Simulate.snapshot) =
  Prefix.Set.of_list (List.map fst (Routing.Simulate.host_prefixes orig.net))

let fib_equal_on_hosts ~orig snap =
  let ps = original_prefixes orig in
  agrees ps (Smap.map (restrict ps) (snapshot_rows orig)) (snapshot_rows snap)

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
  let orig_rows = snapshot_rows orig in
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
     [Ospf.base_fibs] convention), whose order-preserving fold-back
     keeps the result independent of the job count. *)
  let fix_from eng0 configs =
    let pool = Routing.Engine.pool eng0 in
    let snap0 = Routing.Engine.snapshot eng0 in
    let hps = Routing.Simulate.host_prefixes snap0.net in
    (* Both rows are in host-prefix order, so a prefix's original next
       hops are found by walking the router's original row alongside. *)
    let wrong_of r row =
      let orig_row =
        ref (Option.value ~default:[] (Smap.find_opt r orig_rows))
      in
      List.concat_map
        (fun (hp, nxts) ->
          orig_row := drop_below hp !orig_row;
          let ok =
            match !orig_row with
            | (p, ok) :: _ when Prefix.equal p hp -> ok
            | _ -> []
          in
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
          let row =
            match Smap.find_opt r fibs with
            | Some fib -> router_row hps fib
            | None -> []
          in
          (r, row, wrong_of r row))
        names
    in
    let merge (rows, wrongs) scanned =
      List.fold_left
        (fun (rows, wrongs) (r, row, w) -> (Smap.add r row rows, Smap.add r w wrongs))
        (rows, wrongs) scanned
    in
    let all_names fibs = List.map fst (Smap.bindings fibs) in
    (* The predicate of [fib_equal_on_hosts], on the maintained rows. *)
    let converged =
      let ps = original_prefixes orig in
      let orig_restricted = Smap.map (restrict ps) orig_rows in
      fun rows -> agrees ps orig_restricted rows
    in
    let rec loop eng configs rows wrongs iter filters =
      Telemetry.incr c_iterations;
      let wrong = List.concat_map snd (Smap.bindings wrongs) in
      if wrong = [] then
        if converged rows then
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
            let rows, wrongs = merge (rows, wrongs) (scan fibs names) in
            loop eng configs rows wrongs (iter + 1) (filters + List.length wrong)
    in
    let rows, wrongs =
      merge (Smap.empty, Smap.empty) (scan snap0.fibs (all_names snap0.fibs))
    in
    loop eng0 configs rows wrongs 1 0
  in
  match initial with
  | Error m -> Error ("route_equiv: simulation failed: " ^ m)
  | Ok eng0 -> fix_from eng0 configs
