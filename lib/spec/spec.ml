type policy =
  | Reachability of string * string
  | Waypoint of string * string * string
  | Loadbalance of string * string * int

let policy_to_string = function
  | Reachability (s, d) -> Printf.sprintf "reach(%s, %s)" s d
  | Waypoint (s, d, w) -> Printf.sprintf "waypoint(%s, %s, %s)" s d w
  | Loadbalance (s, d, n) -> Printf.sprintf "loadbalance(%s, %s, %d)" s d n

let endpoints = function
  | Reachability (s, d) | Waypoint (s, d, _) | Loadbalance (s, d, _) -> (s, d)

(* Interior routers shared by every path of the pair. *)
let common_waypoints paths =
  match List.map Query.interior paths with
  | [] -> []
  | first :: others ->
      List.filter (fun w -> List.for_all (List.mem w) others) first
      |> List.sort_uniq String.compare

let policies_of_pair (s, d) paths =
  if paths = [] then []
  else
    Reachability (s, d)
    :: (List.map (fun w -> Waypoint (s, d, w)) (common_waypoints paths)
       @ if List.length paths >= 2 then [ Loadbalance (s, d, List.length paths) ] else [])

let mine_paths pairs =
  List.concat_map (fun (pair, paths) -> policies_of_pair pair paths) pairs
  |> List.sort_uniq compare

let mine dp = mine_paths (Routing.Dataplane.all_delivered dp)

type diff = {
  kept : policy list;
  lost : policy list;
  introduced : policy list;
}

module Pset = Set.Make (struct
  type t = policy

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

module Query = Query

let to_query = function
  | Reachability (s, d) -> Query.Reachability (s, d)
  | Waypoint (s, d, w) -> Query.Waypoint (s, d, w)
  | Loadbalance (s, d, n) -> Query.Loadbalance (s, d, n)

let introduced_involving d ~hosts =
  List.filter
    (fun p ->
      let s, dst = endpoints p in
      not (List.mem s hosts && List.mem dst hosts))
    d.introduced
