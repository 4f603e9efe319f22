(* Tests for the anonymization substrates: k-degree graph anonymization,
   the NetHide baseline, the Config2Spec miner, and the PII add-on. *)

open Netcore

let check = Alcotest.check

(* -------------------- Degree_anon -------------------- *)

let test_degree_anon_basic () =
  let degrees = [ 5; 5; 3; 3; 2; 1 ] in
  let targets = Graphanon.Degree_anon.anonymize_sequence ~k:2 degrees in
  check Alcotest.bool "k-anonymous" true (Graphanon.Degree_anon.is_k_anonymous ~k:2 targets);
  List.iter2
    (fun o t -> if t < o then Alcotest.failf "target %d below original %d" t o)
    degrees targets

let test_degree_anon_small_input () =
  (* 3 degrees can never be 5-anonymous; silently returning one group of
     3 used to hide the broken guarantee from callers. *)
  Alcotest.check_raises "rejected"
    (Invalid_argument
       "Degree_anon.anonymize_sequence: 3 degrees cannot be 5-anonymous")
    (fun () ->
      ignore (Graphanon.Degree_anon.anonymize_sequence ~k:5 [ 4; 2; 1 ]))

let test_degree_anon_exactly_k () =
  (* n = k is the smallest feasible input: one group at the maximum. *)
  let targets = Graphanon.Degree_anon.anonymize_sequence ~k:3 [ 4; 2; 1 ] in
  check Alcotest.(list int) "single group at max" [ 4; 4; 4 ] targets;
  check Alcotest.bool "k-anonymous" true
    (Graphanon.Degree_anon.is_k_anonymous ~k:3 targets)

let test_degree_anon_k_plus_one () =
  (* n = k + 1 still admits only one group (two groups would need 2k). *)
  let targets = Graphanon.Degree_anon.anonymize_sequence ~k:3 [ 5; 4; 2; 1 ] in
  check Alcotest.(list int) "single group at max" [ 5; 5; 5; 5 ] targets;
  check Alcotest.bool "k-anonymous" true
    (Graphanon.Degree_anon.is_k_anonymous ~k:3 targets)

let test_degree_anon_already_anonymous () =
  let degrees = [ 3; 3; 3; 2; 2; 2 ] in
  let targets = Graphanon.Degree_anon.anonymize_sequence ~k:3 degrees in
  check Alcotest.(list int) "unchanged" degrees targets;
  check Alcotest.int "zero cost" 0 (Graphanon.Degree_anon.total_increase ~orig:degrees ~target:targets)

let test_degree_anon_order_preserved () =
  (* Results map back to input positions, not sorted order. *)
  let degrees = [ 1; 9; 2; 8 ] in
  let targets = Graphanon.Degree_anon.anonymize_sequence ~k:2 degrees in
  check Alcotest.int "length" 4 (List.length targets);
  List.iter2
    (fun o t -> if t < o then Alcotest.failf "increase-only violated (%d -> %d)" o t)
    degrees targets;
  check Alcotest.bool "anonymous" true (Graphanon.Degree_anon.is_k_anonymous ~k:2 targets)

let prop_degree_anon =
  QCheck2.Test.make ~name:"degree anonymization: k-anonymous and increase-only"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 1 40) (int_bound 20)))
    (fun (k, degrees) ->
      if List.length degrees < k then
        (* Infeasible inputs must be rejected, never silently under-grouped. *)
        match Graphanon.Degree_anon.anonymize_sequence ~k degrees with
        | _ -> false
        | exception Invalid_argument _ -> true
      else
        let targets = Graphanon.Degree_anon.anonymize_sequence ~k degrees in
        List.length targets = List.length degrees
        && List.for_all2 (fun o t -> t >= o) degrees targets
        && Graphanon.Degree_anon.is_k_anonymous ~k targets)

(* The list formulation the array kernel replaced, kept as its
   reference: a stable descending [List.sort] of (position, degree)
   pairs, then the same dynamic program. *)
let reference_sequence ~k degrees =
  if k <= 0 then invalid_arg "k <= 0";
  let n = List.length degrees in
  if n > 0 && n < k then invalid_arg "too short";
  if n = 0 then []
  else
    let indexed =
      List.mapi (fun i d -> (i, d)) degrees
      |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
      |> Array.of_list
    in
    let deg j = snd indexed.(j) in
    let result = Array.make n 0 in
    if n <= k then begin
      Array.iter (fun (i, _) -> result.(i) <- deg 0) indexed;
      Array.to_list result
    end
    else begin
      let prefix = Array.make (n + 1) 0 in
      for j = 0 to n - 1 do
        prefix.(j + 1) <- prefix.(j) + deg j
      done;
      let dp = Array.make (n + 1) max_int and choice = Array.make (n + 1) 0 in
      dp.(0) <- 0;
      for j = k to n do
        for i = max 0 (j - (2 * k) + 1) to j - k do
          if dp.(i) < max_int then begin
            let c = dp.(i) + ((j - i) * deg i) - (prefix.(j) - prefix.(i)) in
            if c < dp.(j) then begin
              dp.(j) <- c;
              choice.(j) <- i
            end
          end
        done
      done;
      let rec assign j =
        if j > 0 then begin
          let i = choice.(j) in
          for pos = i to j - 1 do
            result.(fst indexed.(pos)) <- deg i
          done;
          assign i
        end
      in
      assign n;
      Array.to_list result
    end

(* The counting-sort array kernel gives the list reference's targets,
   ties included, on random sequences (wide degree ranges take the
   comparison-sort fallback). One workspace serves every case, as
   graph realization reuses one across rounds. *)
let prop_degree_kernel =
  let ws = Graphanon.Degree_anon.workspace 64 in
  QCheck2.Test.make ~name:"degree anonymization: array kernel = list reference"
    ~count:50_000
    QCheck2.Gen.(
      triple (int_range 1 6)
        (list_size (int_range 0 60) (int_bound 30))
        (oneofl [ 1; 1; 1; 1000 ]))
    (fun (k, degrees, scale) ->
      let degrees = List.map (fun d -> d * scale) degrees in
      let want = try Ok (reference_sequence ~k degrees) with Invalid_argument _ -> Error () in
      let deg = Array.of_list degrees in
      let out = Array.make (Array.length deg) (-1) in
      let got =
        try
          Graphanon.Degree_anon.anonymize_into ws ~k deg out;
          Ok (Array.to_list out)
        with Invalid_argument _ -> Error ()
      in
      got = want
      && (try Ok (Graphanon.Degree_anon.anonymize_sequence ~k degrees)
          with Invalid_argument _ -> Error ())
         = want)

(* -------------------- Realize -------------------- *)

let star n =
  (* One hub, n spokes: worst case degree spread. *)
  Graph.of_edges (List.init n (fun i -> ("hub", Printf.sprintf "s%d" i)))

let test_realize_star () =
  let g = star 8 in
  let rng = Rng.create 11 in
  let g', added = Graphanon.Realize.add_edges ~rng ~k:4 g in
  check Alcotest.bool "k-anonymous" true (Gmetrics.is_k_degree_anonymous 4 g');
  check Alcotest.bool "edges added" true (added <> []);
  (* Supergraph: all original edges intact. *)
  List.iter
    (fun (u, v) ->
      if not (Graph.mem_edge u v g') then Alcotest.failf "edge %s-%s removed" u v)
    (Graph.edges g)

let test_realize_respects_allowed_when_possible () =
  (* Two cliques of 4; allowed = same clique. Degrees are already uniform,
     so nothing should be added. *)
  let clique tag =
    let names = List.init 4 (fun i -> Printf.sprintf "%s%d" tag i) in
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) names)
      names
  in
  let g = Graph.of_edges (clique "a" @ clique "b") in
  let rng = Rng.create 3 in
  let _, added = Graphanon.Realize.add_edges ~rng ~k:4 g in
  check Alcotest.(list (pair string string)) "nothing to add" [] added

let test_realize_k_exceeds_nodes () =
  Alcotest.check_raises "invalid k"
    (Invalid_argument "Realize.add_edges: k = 9 exceeds 3 nodes") (fun () ->
      ignore
        (Graphanon.Realize.add_edges ~rng:(Rng.create 1) ~k:9
           (Graph.of_edges [ ("a", "b"); ("b", "c") ])))

let prop_realize =
  QCheck2.Test.make ~name:"realize: k-anonymous supergraph" ~count:60
    QCheck2.Gen.(
      pair (int_range 2 4)
        (list_size (int_range 4 30) (pair (int_bound 12) (int_bound 12))))
    (fun (k, pairs) ->
      let edges =
        List.filter_map
          (fun (a, b) ->
            if a = b then None else Some (string_of_int a, string_of_int b))
          pairs
      in
      QCheck2.assume (edges <> []);
      let g = Graph.of_edges edges in
      QCheck2.assume (Graph.num_nodes g >= k);
      let g', _ = Graphanon.Realize.add_edges ~rng:(Rng.create 5) ~k g in
      Gmetrics.is_k_degree_anonymous k g'
      && List.for_all (fun (u, v) -> Graph.mem_edge u v g') (Graph.edges g))

(* The name-keyed realization [Realize.one_attempt] replaced, kept as
   the naive reference: a persistent [Graph.t] threaded through every
   step, degrees re-derived from it each round. Returns the counts the
   production code ticks as [graphanon.rounds] / [graphanon.stuck]. *)
let ref_one_attempt ?(allowed = fun _ _ -> true) ~rng ~k g =
  let n = Graph.num_nodes g in
  let added = ref [] and rounds = ref 0 and stuck = ref 0 in
  let add u v g =
    added := (u, v) :: !added;
    Graph.add_edge u v g
  in
  let matching_pass ~respect_allowed g targets =
    let deficiency = Hashtbl.create 16 in
    List.iter
      (fun (v, t) ->
        let d = t - Graph.degree v g in
        if d > 0 then Hashtbl.replace deficiency v d)
      targets;
    let get v = Option.value ~default:0 (Hashtbl.find_opt deficiency v) in
    let dec v =
      let d = get v - 1 in
      if d <= 0 then Hashtbl.remove deficiency v else Hashtbl.replace deficiency v d
    in
    let rec loop g =
      let deficient =
        Hashtbl.fold (fun v d acc -> (v, d) :: acc) deficiency []
        |> List.sort (fun (a, da) (b, db) ->
               match Int.compare db da with 0 -> String.compare a b | c -> c)
      in
      match deficient with
      | [] | [ _ ] -> g
      | (v, _) :: rest ->
          let candidates =
            List.filter
              (fun (u, _) ->
                (not (Graph.mem_edge u v g))
                && ((not respect_allowed) || allowed u v))
              rest
          in
          if candidates = [] then begin
            Hashtbl.remove deficiency v;
            loop g
          end
          else begin
            let u, _ = Rng.pick rng candidates in
            dec u;
            dec v;
            loop (add u v g)
          end
    in
    loop g
  in
  let rec outer g round =
    incr rounds;
    if Gmetrics.is_k_degree_anonymous k g then g
    else if round > 4 * n + 8 then g
    else begin
      let nodes = Graph.nodes g in
      let degrees = List.map (fun v -> Graph.degree v g) nodes in
      let targets = Graphanon.Degree_anon.anonymize_sequence ~k degrees in
      let node_targets = List.combine nodes targets in
      let g' = matching_pass ~respect_allowed:true g node_targets in
      let g' =
        if Gmetrics.is_k_degree_anonymous k g' then g'
        else matching_pass ~respect_allowed:false g' node_targets
      in
      if Graph.num_edges g' = Graph.num_edges g then begin
        incr stuck;
        let nodes = Array.of_list (Graph.nodes g') in
        let n_nodes = Array.length nodes in
        let total = (n_nodes * (n_nodes - 1) / 2) - Graph.num_edges g' in
        if total = 0 then g'
        else begin
          let i = Rng.int rng total in
          let rec locate pos i =
            let u = nodes.(pos) in
            let nbrs = Graph.neighbors u g' in
            let above = n_nodes - pos - 1 in
            let nbrs_above =
              Graph.Sset.cardinal
                (Graph.Sset.filter (fun v -> String.compare u v < 0) nbrs)
            in
            let count_u = above - nbrs_above in
            if i >= count_u then locate (pos + 1) (i - count_u)
            else
              let rec nth_v vpos i =
                let v = nodes.(vpos) in
                if Graph.Sset.mem v nbrs then nth_v (vpos + 1) i
                else if i = 0 then v
                else nth_v (vpos + 1) (i - 1)
              in
              (u, nth_v (pos + 1) i)
          in
          let u, v = locate 0 i in
          outer (add u v g') (round + 1)
        end
      end
      else outer g' (round + 1)
    end
  in
  let g' = outer g 0 in
  (g', List.rev !added, (!rounds, !stuck))

(* Nodes "r0".."r(n-1)": name order differs from numeric order, so the
   id mapping is exercised. Each pair is an edge with probability
   [density]; near-complete graphs force the stuck branch. *)
let random_graph ~seed ~n ~density =
  let rng = Rng.create seed in
  let name i = Printf.sprintf "r%d" i in
  let g =
    ref (List.fold_left (fun g i -> Graph.add_node (name i) g) Graph.empty
           (List.init n Fun.id))
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng < density then g := Graph.add_edge (name i) (name j) !g
    done
  done;
  !g

(* Mirrors the same-AS predicate of topology anonymization. *)
let same_group u v = Hashtbl.hash u mod 3 = Hashtbl.hash v mod 3

(* Production and reference from equal generators: same graph, same
   added edges in the same order, and the generators left in the same
   state. Returns the reference's stuck-round count. *)
let realizations_agree ?allowed ~seed ~k g =
  let r1 = Rng.create seed and r2 = Rng.create seed in
  let g1, a1 = Graphanon.Realize.one_attempt ?allowed ~rng:r1 ~k g in
  let g2, a2, (_, stuck) = ref_one_attempt ?allowed ~rng:r2 ~k g in
  ( Graph.equal g1 g2 && a1 = a2 && Rng.int r1 1_000_000 = Rng.int r2 1_000_000,
    stuck )

let prop_realize_matches_reference =
  QCheck2.Test.make ~name:"realize: one attempt = name-keyed reference" ~count:150
    QCheck2.Gen.(
      let* n = int_range 2 60 in
      let* k = int_range 1 (min n 6) in
      let* density = oneofl [ 0.0; 0.05; 0.15; 0.4; 0.8; 0.95; 1.0 ] in
      let* seed = int_bound 100_000 in
      let* constrained = bool in
      return (n, k, density, seed, constrained))
    (fun (n, k, density, seed, constrained) ->
      let g = random_graph ~seed ~n ~density in
      let allowed = if constrained then Some same_group else None in
      fst (realizations_agree ?allowed ~seed ~k g))

let test_realize_stuck_matches_reference () =
  (* Near-complete graphs: the deficient nodes end up pairwise adjacent,
     so the random-pair fallback ([locate]) runs. *)
  let stuck = ref 0 in
  for seed = 0 to 39 do
    let n = 5 + (seed mod 26) in
    let g = random_graph ~seed ~n ~density:0.9 in
    List.iter
      (fun allowed ->
        let ok, s = realizations_agree ?allowed ~seed ~k:(min n 4) g in
        check Alcotest.bool (Printf.sprintf "seed %d n %d" seed n) true ok;
        stuck := !stuck + s)
      [ None; Some same_group ]
  done;
  check Alcotest.bool "stuck branch taken" true (!stuck > 0)

let test_realize_w1000_counters () =
  let net =
    Routing.Device.compile_exn (Netgen.Nets.configs (Netgen.Nets.find "W1000"))
  in
  let g = Routing.Device.router_graph net in
  let values () =
    List.map
      (fun name -> Telemetry.value (Telemetry.counter name))
      [ "graphanon.rounds"; "graphanon.stuck"; "graphanon.edges_added" ]
  in
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = values () in
  let _, edges = Graphanon.Realize.add_edges ~rng:(Rng.create 42) ~k:6 g in
  let after = values () in
  Telemetry.set_enabled was;
  let got = List.map2 (fun a b -> a - b) after before in
  (* [add_edges]' best-of-three loop, over the reference. *)
  let rng = Rng.create 42 in
  let want, best =
    List.fold_left
      (fun ((rounds, stuck, added), best) _ ->
        let _, a, (r, s) = ref_one_attempt ~rng:(Rng.split rng) ~k:6 g in
        let best =
          match best with
          | Some b when List.length b <= List.length a -> Some b
          | _ -> Some a
        in
        ((rounds + r, stuck + s, added + List.length a), best))
      ((0, 0, 0), None)
      [ 1; 2; 3 ]
  in
  let rounds, stuck, added = want in
  check Alcotest.(list int) "rounds, stuck, edges_added" [ rounds; stuck; added ] got;
  check Alcotest.(pair int int) "W1000 at k 6" (661, 637) (rounds, stuck);
  check Alcotest.(list (pair string string)) "added edges" (Option.get best) edges

(* -------------------- NetHide -------------------- *)

let grid =
  (* 3x3 grid *)
  let name i j = Printf.sprintf "n%d%d" i j in
  let edges = ref [] in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i < 2 then edges := (name i j, name (i + 1) j) :: !edges;
      if j < 2 then edges := (name i j, name i (j + 1)) :: !edges
    done
  done;
  Graph.of_edges !edges

let all_pairs g =
  let nodes = Graph.nodes g in
  List.concat_map
    (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) nodes)
    nodes

let test_forwarding_path () =
  match Nethide.forwarding_path grid "n00" "n22" with
  | Some p ->
      check Alcotest.int "shortest length" 5 (List.length p);
      check Alcotest.string "starts" "n00" (List.hd p);
      check Alcotest.string "ends" "n22" (List.nth p 4)
  | None -> Alcotest.fail "expected a path"

let test_forwarding_deterministic () =
  let a = Nethide.forwarding_path grid "n00" "n22" in
  let b = Nethide.forwarding_path grid "n00" "n22" in
  check Alcotest.bool "deterministic" true (a = b)

let test_forwarding_unreachable () =
  let g = Graph.add_node "lonely" grid in
  check Alcotest.bool "unreachable" true
    (Nethide.forwarding_path g "n00" "lonely" = None)

let test_path_similarity () =
  check (Alcotest.float 1e-9) "identical" 1.0
    (Nethide.path_similarity [ "a"; "b"; "c" ] [ "a"; "b"; "c" ]);
  check (Alcotest.float 1e-9) "disjoint" 0.0
    (Nethide.path_similarity [ "a"; "b" ] [ "c"; "d" ]);
  let s = Nethide.path_similarity [ "a"; "b"; "c" ] [ "a"; "b"; "d" ] in
  check Alcotest.bool "partial in (0,1)" true (s > 0.0 && s < 1.0)

let test_obfuscate_changes_topology () =
  let rng = Rng.create 9 in
  let flows = all_pairs grid in
  let g' = Nethide.obfuscate ~rng grid ~flows in
  check Alcotest.bool "node set preserved" true
    (List.sort compare (Graph.nodes g') = List.sort compare (Graph.nodes grid));
  check Alcotest.bool "connected" true (Gmetrics.connected g');
  check Alcotest.bool "topology perturbed" true
    (not (Graph.equal g' grid))

let test_obfuscate_respects_budget () =
  let rng = Rng.create 9 in
  let flows = all_pairs grid in
  let params = { Nethide.default_params with similarity_budget = 0.6 } in
  let g' = Nethide.obfuscate ~params ~rng grid ~flows in
  let sims =
    List.filter_map
      (fun (s, d) ->
        match (Nethide.forwarding_path grid s d, Nethide.forwarding_path g' s d) with
        | Some p0, Some p1 -> Some (Nethide.path_similarity p0 p1)
        | _ -> Some 0.0)
      flows
  in
  let avg = List.fold_left ( +. ) 0.0 sims /. float_of_int (List.length sims) in
  check Alcotest.bool (Printf.sprintf "similarity %.2f >= 0.6" avg) true (avg >= 0.6)

(* -------------------- Spec -------------------- *)

let paths_fixture =
  [
    (("h1", "h2"), [ [ "h1"; "r1"; "r2"; "h2" ] ]);
    (("h1", "h3"), [ [ "h1"; "r1"; "r2"; "h3" ]; [ "h1"; "r1"; "r3"; "h3" ] ]);
    (("h2", "h1"), [ [ "h2"; "r2"; "r1"; "h1" ] ]);
  ]

let test_spec_mining () =
  let specs = Spec.mine_paths paths_fixture in
  let has p = List.mem p specs in
  check Alcotest.bool "reach" true (has (Spec.Query.Reachability ("h1", "h2")));
  check Alcotest.bool "waypoint r1" true (has (Spec.Query.Waypoint ("h1", "h2", "r1")));
  check Alcotest.bool "waypoint common only" true (has (Spec.Query.Waypoint ("h1", "h3", "r1")));
  check Alcotest.bool "no divergent waypoint" false (has (Spec.Query.Waypoint ("h1", "h3", "r2")));
  check Alcotest.bool "loadbalance" true (has (Spec.Query.Loadbalance ("h1", "h3", 2)));
  check Alcotest.bool "no single-path loadbalance" false
    (List.exists (function Spec.Query.Loadbalance ("h1", "h2", _) -> true | _ -> false) specs)

let test_spec_diff () =
  let orig = Spec.mine_paths paths_fixture in
  let anon_paths =
    (* h1->h2 rerouted via r3; a fake-host pair appears. *)
    [
      (("h1", "h2"), [ [ "h1"; "r1"; "r3"; "h2" ] ]);
      (("h1", "h3"), [ [ "h1"; "r1"; "r2"; "h3" ]; [ "h1"; "r1"; "r3"; "h3" ] ]);
      (("h2", "h1"), [ [ "h2"; "r2"; "r1"; "h1" ] ]);
      (("h1", "fh1"), [ [ "h1"; "r1"; "fh1" ] ]);
    ]
  in
  let anon = Spec.mine_paths anon_paths in
  let d = Spec.compare_specs ~orig ~anon in
  check Alcotest.bool "reach kept" true (List.mem (Spec.Query.Reachability ("h1", "h2")) d.kept);
  check Alcotest.bool "waypoint r2 lost" true
    (List.mem (Spec.Query.Waypoint ("h1", "h2", "r2")) d.lost);
  check Alcotest.bool "fake reach introduced" true
    (List.mem (Spec.Query.Reachability ("h1", "fh1")) d.introduced);
  let frac = Spec.kept_fraction d in
  check Alcotest.bool "fraction in (0,1)" true (frac > 0.0 && frac < 1.0);
  let fake_only = Spec.introduced_involving d ~hosts:[ "h1"; "h2"; "h3" ] in
  check Alcotest.bool "introduced classified as fake-host specs" true
    (List.for_all
       (fun p -> let _, dst = Spec.Query.endpoints p in dst = "fh1")
       fake_only
    && fake_only <> [])

let test_spec_mine_simulation () =
  let snap = Routing.Simulate.run_exn (Netgen.Nets.configs (Netgen.Nets.find "G")) in
  let specs = Spec.mine (Routing.Simulate.dataplane snap) in
  (* FatTree04: every pair reachable, cross-pod pairs load-balanced. *)
  check Alcotest.bool "many specs" true (List.length specs > 240);
  check Alcotest.bool "has loadbalance" true
    (List.exists (function Spec.Query.Loadbalance _ -> true | _ -> false) specs)

(* -------------------- Pii -------------------- *)

let test_pan_prefix_preserving () =
  let key = Pii.Pan.key_of_int 99 in
  let a = Ipv4.of_string_exn "10.1.2.3" and b = Ipv4.of_string_exn "10.1.2.200" in
  let a' = Pii.Pan.addr key a and b' = Pii.Pan.addr key b in
  let common x y =
    let x = Ipv4.to_int x and y = Ipv4.to_int y in
    let rec count i = if i >= 32 then 32
      else if (x lsr (31 - i)) land 1 = (y lsr (31 - i)) land 1 then count (i + 1)
      else i
    in
    count 0
  in
  check Alcotest.int "common prefix preserved" (common a b) (common a' b');
  check Alcotest.bool "addresses changed" true
    (not (Ipv4.equal a a') || not (Ipv4.equal b b'))

let prop_pan_prefix =
  QCheck2.Test.make ~name:"pan: exact common-prefix preservation" ~count:500
    QCheck2.Gen.(triple (int_bound 1000) (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (k, x, y) ->
      let key = Pii.Pan.key_of_int k in
      let common a b =
        let rec count i =
          if i >= 32 then 32
          else if (a lsr (31 - i)) land 1 = (b lsr (31 - i)) land 1 then count (i + 1)
          else i
        in
        count 0
      in
      let x' = Ipv4.to_int (Pii.Pan.addr key (Ipv4.of_int x)) in
      let y' = Ipv4.to_int (Pii.Pan.addr key (Ipv4.of_int y)) in
      common x y = common x' y')

let prop_pan_bijective =
  QCheck2.Test.make ~name:"pan: injective on samples" ~count:300
    QCheck2.Gen.(pair (int_bound 1000) (pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF)))
    (fun (k, (x, y)) ->
      QCheck2.assume (x <> y);
      let key = Pii.Pan.key_of_int k in
      Pii.Pan.addr key (Ipv4.of_int x) <> Pii.Pan.addr key (Ipv4.of_int y))

let test_pan_bijection_16bit () =
  (* Exhaustive on a /16: every address of 10.7.0.0/16 maps to a distinct
     address sharing the mapped 16-bit prefix — a bijection restricted to
     the subspace, exactly as prefix preservation promises. *)
  let key = Pii.Pan.key_of_int 12345 in
  let base = (10 lsl 24) lor (7 lsl 16) in
  let seen = Hashtbl.create 65536 in
  let mapped_prefix =
    Ipv4.to_int (Pii.Pan.addr key (Ipv4.of_int base)) lsr 16
  in
  for off = 0 to 0xFFFF do
    let out = Ipv4.to_int (Pii.Pan.addr key (Ipv4.of_int (base lor off))) in
    if Hashtbl.mem seen out then
      Alcotest.failf "collision at offset %d (0x%08x)" off out;
    Hashtbl.replace seen out ();
    if out lsr 16 <> mapped_prefix then
      Alcotest.failf "offset %d left the mapped /16" off
  done;
  check Alcotest.int "all 65536 outputs distinct" 65536 (Hashtbl.length seen)

let test_pan_distinct_keys () =
  (* Distinct keys give distinct mappings: the probe vector under key k
     differs from the vector under every other key. *)
  let probes =
    List.map Ipv4.of_string_exn
      [ "10.0.0.1"; "192.168.17.5"; "172.16.254.3"; "8.8.8.8" ]
  in
  let vector k =
    List.map (fun a -> Ipv4.to_int (Pii.Pan.addr k a)) probes
  in
  let seen = Hashtbl.create 128 in
  for n = 0 to 100 do
    let v = vector (Pii.Pan.key_of_int n) in
    (match Hashtbl.find_opt seen v with
    | Some n' -> Alcotest.failf "keys %d and %d induce the same mapping" n' n
    | None -> ());
    Hashtbl.replace seen v n
  done

let test_pan_key_of_string () =
  (* Round trip through the canonical hex form. *)
  let k = Pii.Pan.key_of_int 7 in
  (match Pii.Pan.key_of_string (Pii.Pan.key_to_string k) with
  | Ok k' -> check Alcotest.bool "round trip" true (Pii.Pan.key_equal k k')
  | Error m -> Alcotest.failf "round trip rejected: %s" m);
  (* 0x prefix optional; all 64 bits used. *)
  let probe = Ipv4.of_string_exn "10.1.2.3" in
  (match
     (Pii.Pan.key_of_string "0xdeadbeefcafef00d",
      Pii.Pan.key_of_string "deadbeefcafef00d")
   with
  | Ok a, Ok b ->
      check Alcotest.bool "prefix optional" true (Pii.Pan.key_equal a b);
      check Alcotest.bool "full-width key still prefix-preserving" true
        (Ipv4.to_int (Pii.Pan.addr a probe) lsr 24
        = Ipv4.to_int (Pii.Pan.addr a (Ipv4.of_string_exn "10.200.0.9")) lsr 24)
  | _ -> Alcotest.fail "valid hex keys rejected");
  List.iter
    (fun s ->
      match Pii.Pan.key_of_string s with
      | Ok _ -> Alcotest.failf "malformed key %S accepted" s
      | Error _ -> ())
    (* Short keys are rejected, not zero-extended into a tiny key space. *)
    [ ""; "0x"; "zz"; "0xdeadbeefcafef00d7"; "12 34"; "-5"; "7"; "0x7"; "deadbeef" ]

let test_scrub_consistency () =
  (* Scrubbed configs must still compile and keep full reachability. *)
  let configs = Netgen.Nets.configs (Netgen.Nets.find "A") in
  let scrubbed = Pii.Scrub.scrub ~key:(Pii.Pan.key_of_int 5) configs in
  let snap = Routing.Simulate.run_exn scrubbed in
  let dp = Routing.Simulate.dataplane snap in
  let hosts = List.map fst (Routing.Device.Smap.bindings snap.net.hosts) in
  check Alcotest.int "host count" 8 (List.length hosts);
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> d && Routing.Dataplane.paths dp ~src:s ~dst:d = []
          then Alcotest.failf "scrub broke %s -> %s" s d)
        hosts)
    hosts;
  (* Topology is isomorphic: same degree histogram. *)
  let orig_snap = Routing.Simulate.run_exn configs in
  check
    Alcotest.(list (pair int int))
    "same degree histogram"
    (Gmetrics.degree_histogram (Routing.Device.router_graph orig_snap.net))
    (Gmetrics.degree_histogram (Routing.Device.router_graph snap.net))

let test_scrub_preserves_acl_semantics () =
  (* Prefix-preserving rewriting keeps ACL endpoints aligned with host
     subnets, so the scrubbed network drops exactly the same (renamed)
     flows. *)
  let config lines = Configlang.Parser.parse_exn (String.concat "\n" lines) in
  let nets =
    [
      config
        [
          "hostname r1";
          "interface Eth0";
          " ip address 10.0.12.1 255.255.255.0";
          "!";
          "interface Eth1";
          " ip address 10.1.1.1 255.255.255.0";
          "!";
          "router ospf 1";
          " network 10.0.0.0 0.255.255.255 area 0";
        ];
      config
        [
          "hostname r2";
          "interface Eth0";
          " ip address 10.0.12.2 255.255.255.0";
          " ip access-group BLOCK in";
          "!";
          "interface Eth1";
          " ip address 10.2.2.1 255.255.255.0";
          "!";
          "router ospf 1";
          " network 10.0.0.0 0.255.255.255 area 0";
          "!";
          "ip access-list extended BLOCK";
          " deny ip 10.1.1.0 0.0.0.255 10.2.2.0 0.0.0.255";
          " permit ip any any";
        ];
      config
        [ "hostname h1"; "interface eth0"; " ip address 10.1.1.10 255.255.255.0";
          "ip default-gateway 10.1.1.1" ];
      config
        [ "hostname h2"; "interface eth0"; " ip address 10.2.2.10 255.255.255.0";
          "ip default-gateway 10.2.2.1" ];
    ]
  in
  let scrubbed = Pii.Scrub.scrub ~key:(Pii.Pan.key_of_int 77) nets in
  let snap = Routing.Simulate.run_exn scrubbed in
  let rename = Pii.Scrub.default_rename nets in
  let t =
    Routing.Dataplane.traceroute snap.net snap.fibs ~src:(rename "h1")
      ~dst:(rename "h2")
  in
  check Alcotest.bool "blocked direction still blocked" true (t.delivered = []);
  check Alcotest.bool "still an ACL drop (not a routing drop)" true (t.filtered <> []);
  let back =
    Routing.Dataplane.traceroute snap.net snap.fibs ~src:(rename "h2")
      ~dst:(rename "h1")
  in
  check Alcotest.bool "open direction still open" true (back.delivered <> [])

let test_redact () =
  check Alcotest.string "password" "enable password <redacted>"
    (Pii.Scrub.redact_line "enable password hunter2");
  (* Everything after the keyword goes — redacting only the next token
     would keep "5 $1$abc" and leak the hash after the type digit. *)
  check Alcotest.string "typed secret" "enable secret <redacted>"
    (Pii.Scrub.redact_line "enable secret 5 $1$abc$KKmhhSdyN.Ss1");
  check Alcotest.string "community" "snmp-server community <redacted>"
    (Pii.Scrub.redact_line "snmp-server community sEcReT ro");
  check Alcotest.string "untouched" "no shutdown" (Pii.Scrub.redact_line "no shutdown");
  check Alcotest.string "whitespace preserved" " ip  route\t10.0.0.0"
    (Pii.Scrub.redact_line " ip  route\t10.0.0.0");
  check Alcotest.string "tab before secret" "tacacs-server key <redacted>"
    (Pii.Scrub.redact_line "tacacs-server key\tS3cr3t");
  check Alcotest.string "trailing keyword" "crypto key"
    (Pii.Scrub.redact_line "crypto key");
  (* Hyphen-compounded keywords: whole-token equality alone let these
     Cisco forms through unredacted. *)
  check Alcotest.string "key-string" "key-string <redacted>"
    (Pii.Scrub.redact_line "key-string 7 0822455D0A16");
  check Alcotest.string "community-map" "snmp-server community-map <redacted>"
    (Pii.Scrub.redact_line "snmp-server community-map cOmMuN1ty context ctx");
  check Alcotest.string "md5 auth" "ip ospf message-digest-key 1 md5 <redacted>"
    (Pii.Scrub.redact_line "ip ospf message-digest-key 1 md5 S3cr3tH4sh");
  check Alcotest.string "trailing compound keyword" "service password-encryption"
    (Pii.Scrub.redact_line "service password-encryption")

(* No whitespace-delimited token appearing after a sensitive keyword may
   survive redaction. *)
let prop_redact_no_leak =
  let open QCheck2 in
  let keyword =
    (* Bare keywords plus hyphen-compounded Cisco forms — the regression
       class the whole-token matcher used to leak. *)
    Gen.oneofl
      [
        "password"; "secret"; "community"; "key"; "key-string"; "md5";
        "community-map"; "key-chain"; "password-prompt";
      ]
  in
  let token =
    (* Distinctive secrets, never equal to a keyword or "<redacted>". *)
    Gen.map (Printf.sprintf "ZQ%d") (Gen.int_bound 99999)
  in
  let word = Gen.oneofl [ "enable"; "snmp-server"; "7"; "5"; "ro"; "ip" ] in
  let sep = Gen.oneofl [ " "; "  "; "\t"; " \t " ] in
  let gen_line =
    Gen.map
      (fun (pre, kw, s1, parts) ->
        let tail = List.concat_map (fun (s, t) -> [ s; t ]) parts in
        String.concat "" ((pre ^ " " ^ kw ^ s1) :: tail))
      (Gen.quad word keyword sep
         (Gen.list_size (Gen.int_range 1 4) (Gen.pair sep token)))
  in
  QCheck2.Test.make ~name:"no token after a sensitive keyword survives scrub"
    ~count:500 gen_line (fun line ->
      let out = Pii.Scrub.redact_line line in
      let is_space c = c = ' ' || c = '\t' in
      let tokens s =
        String.fold_left
          (fun (acc, cur) c ->
            if is_space c then
              ((if cur = "" then acc else cur :: acc), "")
            else (acc, cur ^ String.make 1 c))
          ([], "") s
        |> fun (acc, cur) -> if cur = "" then acc else cur :: acc
      in
      let keywords =
        [ "password"; "secret"; "community"; "key"; "key-string"; "md5" ]
      in
      let sensitive w =
        let w = String.lowercase_ascii w in
        List.exists
          (fun kw ->
            w = kw
            || (String.length w > String.length kw
                && String.sub w 0 (String.length kw + 1) = kw ^ "-"))
          keywords
      in
      let rec after_kw = function
        | [] -> []
        | w :: rest when sensitive w -> rest
        | _ :: rest -> after_kw rest
      in
      let secrets = after_kw (List.rev (tokens line)) in
      List.for_all (fun s -> not (List.mem s (tokens out))) secrets)

let test_default_rename () =
  let configs = Netgen.Nets.configs (Netgen.Nets.find "CCNP") in
  let rename = Pii.Scrub.default_rename configs in
  check Alcotest.string "router renamed" "node1" (rename "p1");
  check Alcotest.bool "host renamed" true
    (String.length (rename "hp1") >= 5 && String.sub (rename "hp1") 0 4 = "host");
  check Alcotest.string "unknown unchanged" "zzz" (rename "zzz")

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_degree_anon;
      prop_degree_kernel;
      prop_realize;
      prop_realize_matches_reference;
      prop_pan_prefix;
      prop_pan_bijective;
      prop_redact_no_leak;
    ]

let () =
  Alcotest.run "anonlibs"
    [
      ( "degree_anon",
        [
          Alcotest.test_case "basic" `Quick test_degree_anon_basic;
          Alcotest.test_case "input smaller than k" `Quick test_degree_anon_small_input;
          Alcotest.test_case "input exactly k" `Quick test_degree_anon_exactly_k;
          Alcotest.test_case "input of k+1" `Quick test_degree_anon_k_plus_one;
          Alcotest.test_case "already anonymous" `Quick test_degree_anon_already_anonymous;
          Alcotest.test_case "order preserved" `Quick test_degree_anon_order_preserved;
        ] );
      ( "realize",
        [
          Alcotest.test_case "star graph" `Quick test_realize_star;
          Alcotest.test_case "constraint respected" `Quick test_realize_respects_allowed_when_possible;
          Alcotest.test_case "k too large" `Quick test_realize_k_exceeds_nodes;
          Alcotest.test_case "stuck branch = reference" `Quick
            test_realize_stuck_matches_reference;
          Alcotest.test_case "W1000 counters = reference" `Quick
            test_realize_w1000_counters;
        ] );
      ( "nethide",
        [
          Alcotest.test_case "forwarding path" `Quick test_forwarding_path;
          Alcotest.test_case "deterministic" `Quick test_forwarding_deterministic;
          Alcotest.test_case "unreachable" `Quick test_forwarding_unreachable;
          Alcotest.test_case "path similarity" `Quick test_path_similarity;
          Alcotest.test_case "obfuscation perturbs" `Quick test_obfuscate_changes_topology;
          Alcotest.test_case "similarity budget" `Quick test_obfuscate_respects_budget;
        ] );
      ( "spec",
        [
          Alcotest.test_case "mining" `Quick test_spec_mining;
          Alcotest.test_case "diff" `Quick test_spec_diff;
          Alcotest.test_case "mining a simulation" `Quick test_spec_mine_simulation;
        ] );
      ( "pii",
        [
          Alcotest.test_case "prefix preserving" `Quick test_pan_prefix_preserving;
          Alcotest.test_case "bijection on a /16" `Quick test_pan_bijection_16bit;
          Alcotest.test_case "distinct keys, distinct maps" `Quick
            test_pan_distinct_keys;
          Alcotest.test_case "hex key parsing" `Quick test_pan_key_of_string;
          Alcotest.test_case "scrub consistency" `Quick test_scrub_consistency;
          Alcotest.test_case "scrub preserves ACL semantics" `Quick
            test_scrub_preserves_acl_semantics;
          Alcotest.test_case "redaction" `Quick test_redact;
          Alcotest.test_case "default rename" `Quick test_default_rename;
        ] );
      ("properties", qsuite);
    ]
