module Query = Query

(* Reachability and the waypoints every delivered path crosses: the part
   of a pair's specification both miners share. *)
let reach_and_waypoints (s, d) paths =
  match List.map Query.interior paths with
  | [] -> []
  | first :: others ->
      Query.Reachability (s, d)
      :: (List.filter (fun w -> List.for_all (List.mem w) others) first
         |> List.sort_uniq String.compare
         |> List.map (fun w -> Query.Waypoint (s, d, w)))

let mine_pair ((s, d) as pair) paths =
  let n = List.length paths in
  reach_and_waypoints pair paths @ if n >= 2 then [ Query.Loadbalance (s, d, n) ] else []

let mine_paths pairs =
  List.concat_map (fun (pair, paths) -> mine_pair pair paths) pairs |> List.sort_uniq compare

let mine dp = mine_paths (Routing.Dataplane.all_delivered dp)

let appendix_b ((s, d) as pair) (t : Routing.Dataplane.trace) =
  let lossy = t.dropped <> [] || t.filtered <> [] in
  let lengths =
    match List.sort_uniq compare (List.map List.length t.delivered) with
    | [ l ] -> [ Query.Path_length (s, d, l - 2) (* count routers only *) ]
    | _ -> []
  in
  reach_and_waypoints pair t.delivered
  @ lengths
  @ (if lossy then [ Query.Black_hole (s, d) ] else [])
  @ (if lossy && t.delivered <> [] then [ Query.Multipath_inconsistent (s, d) ] else [])
  @ if t.looped <> [] then [ Query.Routing_loop (s, d) ] else []

let mine_properties ?hosts dp =
  let keep =
    match hosts with
    | None -> fun _ -> true
    | Some hs -> fun (s, d) -> List.mem s hs && List.mem d hs
  in
  Routing.Dataplane.fold
    (fun pair trace acc -> if keep pair then appendix_b pair trace @ acc else acc)
    dp []
  |> List.sort_uniq compare

type diff = {
  kept : Query.policy list;
  lost : Query.policy list;
  introduced : Query.policy list;
}

module Pset = Set.Make (struct
  type t = Query.policy

  let compare = compare
end)

let compare_specs ~orig ~anon =
  let anon_set = Pset.of_list anon in
  let orig_set = Pset.of_list orig in
  {
    kept = Pset.elements (Pset.inter orig_set anon_set);
    lost = Pset.elements (Pset.diff orig_set anon_set);
    introduced = Pset.elements (Pset.diff anon_set orig_set);
  }

let kept_fraction d =
  let total = List.length d.kept + List.length d.lost in
  if total = 0 then 1.0 else float_of_int (List.length d.kept) /. float_of_int total

let introduced_involving d ~hosts =
  List.filter
    (fun p ->
      let s, dst = Query.endpoints p in
      not (List.mem s hosts && List.mem dst hosts))
    d.introduced
