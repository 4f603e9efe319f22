open Netcore
module Smap = Routing.Device.Smap

type outcome = {
  configs : Configlang.Ast.config list;
  iterations : int;
  filters_added : int;
}

let c_iterations = Telemetry.counter "strawman.iterations"
let c_filters = Telemetry.counter "strawman.filters_added"

let strawman1 ?engine ~orig ~fake_edges configs =
  Telemetry.with_span "strawman.strawman1" @@ fun () ->
  let initial =
    match engine with
    | Some e -> Routing.Engine.apply_edit e configs
    | None -> Routing.Engine.of_configs configs
  in
  match initial with
  | Error m -> Error ("strawman1: simulation failed: " ^ m)
  | Ok eng ->
      let snap = Routing.Engine.snapshot eng in
      let host_prefixes =
        List.map fst (Routing.Simulate.host_prefixes orig.Routing.Simulate.net)
      in
      let filters = ref 0 in
      (* One config rewrite per fake interface, installing the whole host
         prefix list at once. *)
      let configs =
        List.fold_left
          (fun configs (u, v) ->
            List.fold_left
              (fun configs (r, nxt) ->
                match Attach.point snap.net r nxt with
                | None -> configs
                | Some attach ->
                    Edits.update configs r (fun c ->
                        List.fold_left
                          (fun c hp ->
                            incr filters;
                            Attach.deny_at c attach hp)
                          c host_prefixes))
              configs
              [ (u, v); (v, u) ])
          configs fake_edges
      in
      (* One verification simulation. *)
      (match Routing.Engine.apply_edit eng configs with
      | Error m -> Error ("strawman1: verification failed: " ^ m)
      | Ok eng' ->
          if Route_equiv.fib_equal_on_hosts ~orig (Routing.Engine.snapshot eng')
          then begin
            Telemetry.add c_iterations 2;
            Telemetry.add c_filters !filters;
            Ok { configs; iterations = 2; filters_added = !filters }
          end
          else Error "strawman1: blanket filters did not restore the FIBs")

let orig_paths_table orig_dp =
  let table = Hashtbl.create 256 in
  List.iter
    (fun (pair, paths) -> Hashtbl.replace table pair paths)
    (Routing.Dataplane.all_delivered orig_dp);
  table

let strawman2_max_iters = 64

let strawman2 ?engine ~orig ~fake_edges:_ configs =
  Telemetry.with_span "strawman.strawman2" @@ fun () ->
  let orig_dp = Routing.Simulate.dataplane orig in
  let orig_table = orig_paths_table orig_dp in
  let orig_fibs = Routing.Simulate.host_routes orig in
  let orig_nexthops r hp =
    List.concat_map
      (fun (r', hp', nxts) ->
        if String.equal r r' && Prefix.equal hp hp' then nxts else [])
      orig_fibs
  in
  let hosts (snap : Routing.Simulate.snapshot) =
    List.map fst (Smap.bindings snap.net.hosts)
  in
  (* For one deviating path, the filter location: the hop closest to the
     destination whose next hop was not an original FIB next hop for the
     destination prefix — filter that prefix at that router toward that
     next hop (§4.3, Figure 4c: one hop fixed per pair per iteration). *)
  let locate_fix (snap : Routing.Simulate.snapshot) path =
    let routers = Spec.Query.interior path in
    let dst = List.nth path (List.length path - 1) in
    let hp = Routing.Device.host_prefix (Smap.find dst snap.net.hosts) in
    let rec scan = function
      | r_i :: (r_next :: _ as rest) ->
          (* Deeper deviations are closer to the destination; prefer them. *)
          let deeper = scan rest in
          if deeper <> None then deeper
          else if List.mem r_next (orig_nexthops r_i hp) then None
          else Some (r_i, r_next, hp)
      | [ _ ] | [] -> None
    in
    scan routers
  in
  let initial =
    match engine with
    | Some e -> Routing.Engine.apply_edit e configs
    | None -> Routing.Engine.of_configs configs
  in
  let rec loop eng configs iter filters =
    Telemetry.incr c_iterations;
    let snap = Routing.Engine.snapshot eng in
    let dp = Routing.Simulate.dataplane snap in
    let pairs =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun d -> if String.equal s d then None else Some (s, d))
            (hosts snap))
        (hosts snap)
    in
    let deviating =
      List.filter_map
        (fun pair ->
          let current = Routing.Dataplane.paths dp ~src:(fst pair) ~dst:(snd pair) in
          let original =
            Option.value ~default:[] (Hashtbl.find_opt orig_table pair)
          in
          if List.equal (List.equal String.equal) current original then None
          else Some (pair, current, original))
        pairs
    in
    let fixes =
      List.concat_map
        (fun (_, current, original) ->
          List.filter_map
            (fun p -> if List.mem p original then None else locate_fix snap p)
            current)
        deviating
      |> List.sort_uniq compare
    in
    if deviating = [] then
      Ok { configs; iterations = iter; filters_added = filters }
    else if fixes = [] then
      Error "strawman2: deviating paths remain but no hop is fixable"
    else if iter >= strawman2_max_iters then
      Error (Printf.sprintf "strawman2: no convergence after %d iterations" iter)
    else
      let configs =
        List.fold_left
          (fun configs (r, nxt, hp) ->
            Attach.deny configs snap.net ~router:r ~toward:nxt hp)
          configs fixes
      in
      Telemetry.add c_filters (List.length fixes);
      match Routing.Engine.apply_edit eng configs with
      | Error m -> Error ("strawman2: simulation failed: " ^ m)
      | Ok eng -> loop eng configs (iter + 1) (filters + List.length fixes)
  in
  match initial with
  | Error m -> Error ("strawman2: simulation failed: " ^ m)
  | Ok eng -> loop eng configs 1 0
