open Netcore

let c_rounds = Telemetry.counter "graphanon.rounds"
let c_stuck = Telemetry.counter "graphanon.stuck"
let c_added = Telemetry.counter "graphanon.edges_added"

(* One randomized realization, on dense ids in [Graph.nodes] (= name)
   order, so id order is name order throughout. The state is a degree
   array, an edge set keyed [u * n + v] (u < v), per-node neighbor lists
   and an edge count; the returned graph folds the added edges into [g].
   Every random draw sees the same candidate list, count or index as the
   name-keyed formulation would: the RNG draw sequence, and with it the
   added edges and their order, is unchanged (DESIGN §4). *)
let one_attempt ?(allowed = fun _ _ -> true) ~rng ~k g =
  let names = Array.of_list (Graph.nodes g) in
  let n = Array.length names in
  let id = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace id v i) names;
  let deg = Array.make n 0 in
  let nbrs = Array.make n [] in
  let edges = Hashtbl.create (2 * n) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let mem_edge u v = Hashtbl.mem edges (key u v) in
  let m = ref 0 in
  let link u v =
    Hashtbl.replace edges (key u v) ();
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1;
    nbrs.(u) <- v :: nbrs.(u);
    nbrs.(v) <- u :: nbrs.(v);
    incr m
  in
  Array.iteri
    (fun u name ->
      Graph.Sset.iter
        (fun w ->
          let v = Hashtbl.find id w in
          if u < v then link u v)
        (Graph.neighbors name g))
    names;
  let added = ref [] in
  let add u v =
    Telemetry.incr c_added;
    added := (names.(u), names.(v)) :: !added;
    link u v
  in
  (* k-degree anonymity as a histogram over the degree array (degrees
     are below [n]). *)
  let count = Array.make (max n 1) 0 in
  let is_k_anonymous () =
    Array.fill count 0 (Array.length count) 0;
    Array.iter (fun d -> count.(d) <- count.(d) + 1) deg;
    Array.for_all (fun c -> c = 0 || c >= k) count
  in
  (* One matching pass: pair up deficient nodes greedily, largest
     deficiency first (ties by id, i.e. by name), random choice among
     allowed non-adjacent partners. [dfc.(v) = 0] means v is not
     deficient; [live] holds the deficient ids, ascending. *)
  let dfc = Array.make n 0 in
  let matching_pass ~respect_allowed targets =
    for v = 0 to n - 1 do
      dfc.(v) <- max 0 (targets.(v) - deg.(v))
    done;
    let live = ref (List.filter (fun v -> dfc.(v) > 0) (List.init n Fun.id)) in
    let dec v = dfc.(v) <- dfc.(v) - 1 in
    let rec loop () =
      live := List.filter (fun v -> dfc.(v) > 0) !live;
      let deficient =
        List.stable_sort (fun a b -> Int.compare dfc.(b) dfc.(a)) !live
      in
      match deficient with
      | [] | [ _ ] -> ()
      | v :: rest ->
          let candidates =
            List.filter
              (fun u ->
                (not (mem_edge u v))
                && ((not respect_allowed) || allowed names.(u) names.(v)))
              rest
          in
          if candidates = [] then begin
            (* No partner for the hardest node: drop it for this pass. *)
            dfc.(v) <- 0;
            loop ()
          end
          else begin
            let u = Rng.pick rng candidates in
            dec u;
            dec v;
            add u v;
            loop ()
          end
    in
    loop ()
  in
  (* The targets, the deficiencies and the dynamic program's arrays are
     allocated once: fresh n-slot arrays every round would be major-heap
     allocations pacing the major collector. *)
  let ws = Degree_anon.workspace n in
  let targets = Array.make n 0 in
  (* Outer relaxation: recompute targets on current degrees until the
     graph is k-anonymous. Degrees are monotonically non-decreasing and
     bounded by n-1, so this terminates; the guard is belt and braces. *)
  let rec outer round =
    Telemetry.incr c_rounds;
    if n = 0 || is_k_anonymous () then ()
    else if round > 4 * n + 8 then ()
    else begin
      Degree_anon.anonymize_into ws ~k deg targets;
      let m0 = !m in
      matching_pass ~respect_allowed:true targets;
      if not (is_k_anonymous ()) then
        matching_pass ~respect_allowed:false targets;
      if !m = m0 then begin
        Telemetry.incr c_stuck;
        (* Stuck: the remaining deficient nodes are pairwise adjacent.
           Connect a uniformly random non-adjacent pair to shake the
           histogram, then retry. Drawn as [Rng.pick] over the (u, v)
           pairs with u < v would — same count, same index, same pair —
           but by locating the index instead of materializing all
           O(n^2) candidates. *)
        let total = (n * (n - 1) / 2) - !m in
        if total > 0 (* else complete: trivially anonymous *) then begin
          let i = Rng.int rng total in
          (* Walk u in id order, skipping each u's count of non-neighbors
             above it, then walk to the i-th such v. *)
          let rec locate u i =
            let nbrs_above =
              List.fold_left (fun c w -> if w > u then c + 1 else c) 0 nbrs.(u)
            in
            let count_u = n - u - 1 - nbrs_above in
            if i >= count_u then locate (u + 1) (i - count_u)
            else
              let rec nth_v v i =
                if mem_edge u v then nth_v (v + 1) i
                else if i = 0 then v
                else nth_v (v + 1) (i - 1)
              in
              (u, nth_v (u + 1) i)
          in
          let u, v = locate 0 i in
          add u v;
          outer (round + 1)
        end
      end
      else outer (round + 1)
    end
  in
  outer 0;
  let added = List.rev !added in
  (List.fold_left (fun g (u, v) -> Graph.add_edge u v g) g added, added)

(* The greedy matching is randomized and its edge count varies; keep the
   cheapest of a few attempts (the paper's utility metric counts every
   injected line). *)
let attempts = 3

let add_edges ?allowed ~rng ~k g =
  let n = Graph.num_nodes g in
  if n > 0 && k > n then
    invalid_arg
      (Printf.sprintf "Realize.add_edges: k = %d exceeds %d nodes" k n);
  let attempt () = one_attempt ?allowed ~rng:(Rng.split rng) ~k g in
  let rec best acc remaining =
    if remaining = 0 then acc
    else
      let candidate = attempt () in
      let acc =
        if List.length (snd acc) <= List.length (snd candidate) then acc else candidate
      in
      best acc (remaining - 1)
  in
  best (attempt ()) (attempts - 1)
