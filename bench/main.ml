(* The benchmark harness: one experiment per table/figure of the ConfMask
   evaluation (§7 and Appendix C). Each experiment prints the same rows or
   series the paper reports.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig5  -- run one experiment
     dune exec bench/main.exe -- --fast       -- small networks only
     dune exec bench/main.exe -- --jobs 4     -- size of the worker pool
     dune exec bench/main.exe -- --list       -- list experiment ids

   Absolute numbers differ from the paper (our substrate is a native
   simulator and re-seeded synthetic configs; see DESIGN.md), but the
   shapes being checked are stated in each header. *)

let fast = ref false

let ids () = if !fast then Runs.fast_ids else Runs.all_ids

let header title expectation =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "expected shape: %s\n" expectation;
  Printf.printf "==================================================================\n%!"

(* ---------------- Table 2 ---------------- *)

let table2 () =
  header "Table 2: the evaluation networks"
    "sizes match the paper's |R|, |H|, |E|; line counts in the same order of magnitude";
  Printf.printf "%-3s %-11s %5s %5s %5s %13s  %s\n" "ID" "Network" "|R|" "|H|" "|E|"
    "#config lines" "Type";
  List.iter
    (fun id ->
      let e = Netgen.Nets.find id in
      let configs = Netgen.Nets.configs e in
      let g = Netgen.Netspec.router_graph e.spec in
      let lines =
        Configlang.Count.total (Configlang.Count.of_configs configs)
      in
      Printf.printf "%-3s %-11s %5d %5d %5d %13d  %s\n" e.id e.label
        (Netcore.Graph.num_nodes g)
        (List.length e.spec.Netgen.Netspec.hosts)
        (Netcore.Graph.num_edges g + List.length e.spec.Netgen.Netspec.hosts)
        lines e.network_type)
    (ids ())

(* ---------------- Figure 5 ---------------- *)

let fig5 () =
  header "Figure 5: route anonymity N_r (k_R = 6, k_H = 2)"
    "anonymized N_r above original on every network (paper: avg ~1.93)";
  Printf.printf "%-3s %-11s %12s %12s %10s %10s\n" "ID" "Network" "orig avg" "anon avg"
    "orig min" "anon min";
  let totals = ref (0.0, 0.0, 0) in
  List.iter
    (fun id ->
      let r = Runs.get ~k_r:6 ~k_h:2 id in
      let n0 = Confmask.Metrics.route_anonymity (Runs.orig_dp r) in
      let n1 = Confmask.Metrics.route_anonymity (Runs.anon_dp r) in
      let a, b, n = !totals in
      totals := (a +. n0.nr_avg, b +. n1.nr_avg, n + 1);
      Printf.printf "%-3s %-11s %12.2f %12.2f %10d %10d\n" id r.entry.label n0.nr_avg
        n1.nr_avg n0.nr_min n1.nr_min)
    (ids ());
  let a, b, n = !totals in
  Printf.printf "%-15s %12.2f %12.2f\n" "average" (a /. float_of_int n) (b /. float_of_int n)

(* ---------------- Figure 6 ---------------- *)

let fig6 () =
  header "Figure 6: topology anonymity, min same-degree group (k_R = 6, k_H = 2)"
    "anonymized k >= 6 on every network regardless of structure";
  Printf.printf "%-3s %-11s %10s %10s\n" "ID" "Network" "orig k" "anon k";
  List.iter
    (fun id ->
      let r = Runs.get ~k_r:6 ~k_h:2 id in
      let t0 = Confmask.Metrics.topology_of_snapshot r.orig_snapshot in
      let t1 = Confmask.Metrics.topology_of_snapshot r.anon_snapshot in
      Printf.printf "%-3s %-11s %10d %10d%s\n" id r.entry.label t0.min_degree_group
        t1.min_degree_group
        (if t1.min_degree_group >= 6 then "" else "  << VIOLATION"))
    (ids ())

(* ---------------- Figure 7 ---------------- *)

let fig7 () =
  header "Figure 7: clustering coefficients (k_R = 6, k_H = 2)"
    "anonymized CC close to original on large networks (paper avg diff 0.075); \
     small networks drift more because k_R is large relative to |R|";
  Printf.printf "%-3s %-11s %10s %10s %10s\n" "ID" "Network" "orig CC" "anon CC" "diff";
  List.iter
    (fun id ->
      let r = Runs.get ~k_r:6 ~k_h:2 id in
      let t0 = Confmask.Metrics.topology_of_snapshot r.orig_snapshot in
      let t1 = Confmask.Metrics.topology_of_snapshot r.anon_snapshot in
      Printf.printf "%-3s %-11s %10.3f %10.3f %10.3f\n" id r.entry.label t0.clustering
        t1.clustering
        (Float.abs (t1.clustering -. t0.clustering)))
    (ids ())

(* ---------------- Figure 8 ---------------- *)

let fig8 () =
  header "Figure 8: proportion of exactly kept host-to-host paths"
    "ConfMask 100% on every network; NetHide far below (paper: <30%, avg ~15%)";
  Printf.printf "%-3s %-11s %14s %14s\n" "ID" "Network" "ConfMask" "NetHide";
  List.iter
    (fun id ->
      let r = Runs.get ~k_r:6 ~k_h:2 id in
      let confmask =
        Confmask.Metrics.kept_paths_fraction ~orig:(Runs.orig_dp r)
          ~anon:(Runs.anon_dp r) ~hosts:(Runs.real_hosts r)
      in
      let nethide =
        Confmask.Metrics.kept_paths_fraction_of_pairs
          ~orig:(Routing.Dataplane.all_delivered (Runs.orig_dp r))
          ~anon:(Runs.nethide_paths r)
      in
      Printf.printf "%-3s %-11s %13.1f%% %13.1f%%\n" id r.entry.label
        (100.0 *. confmask) (100.0 *. nethide))
    (ids ())

(* ---------------- Figure 9 ---------------- *)

let fig9 () =
  header "Figure 9: preserved network specifications, Config2Spec (k_R = 6, k_H = 4)"
    "ConfMask keeps ~all original specs (paper 91.3% vs NetHide 65.2%); \
     ConfMask's introduced specs overwhelmingly involve fake hosts (paper 96.9%)";
  Printf.printf "%-3s %-11s | %9s %9s | %11s %11s | %s\n" "ID" "Network" "CM kept"
    "NH kept" "CM intro" "NH intro" "CM intro w/ fakes";
  List.iter
    (fun id ->
      let r = Runs.get ~k_r:6 ~k_h:4 id in
      let orig_specs = Spec.mine (Runs.orig_dp r) in
      let cm = Spec.compare_specs ~orig:orig_specs ~anon:(Spec.mine (Runs.anon_dp r)) in
      let nh =
        Spec.compare_specs ~orig:orig_specs
          ~anon:(Spec.mine_paths (Runs.nethide_paths r))
      in
      let n_orig = float_of_int (List.length orig_specs) in
      let fake_frac =
        if cm.introduced = [] then 0.0
        else
          float_of_int
            (List.length (Spec.introduced_involving cm ~hosts:(Runs.real_hosts r)))
          /. float_of_int (List.length cm.introduced)
      in
      Printf.printf "%-3s %-11s | %8.1f%% %8.1f%% | %10.2fx %10.2fx | %15.1f%%\n" id
        r.entry.label
        (100.0 *. Spec.kept_fraction cm)
        (100.0 *. Spec.kept_fraction nh)
        (float_of_int (List.length cm.introduced) /. n_orig)
        (float_of_int (List.length nh.introduced) /. n_orig)
        (100.0 *. fake_frac))
    (ids ())

(* ---------------- Figure 10 ---------------- *)

let fig10 () =
  header "Figure 10: anonymity (N_r) and utility (U_C) vs the strawman baselines \
          (k_R = 6, k_H = 2)"
    "comparable N_r across the three; strawman 1 injects the most lines \
     (lowest U_C), strawman 2 the fewest (paper: +21.2% / -13.1% vs ConfMask)";
  Printf.printf "%-3s %-11s | %9s %9s %9s | %8s %8s %8s\n" "ID" "Network" "CM N_r"
    "S1 N_r" "S2 N_r" "CM U_C" "S1 U_C" "S2 U_C";
  List.iter
    (fun id ->
      let metrics variant =
        let r = Runs.get ~variant ~k_r:6 ~k_h:2 id in
        let nr = (Confmask.Metrics.route_anonymity (Runs.anon_dp r)).nr_avg in
        let uc =
          Confmask.Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs
        in
        (nr, uc)
      in
      let cm_nr, cm_uc = metrics Runs.Confmask_v in
      let s1_nr, s1_uc = metrics Runs.Strawman1_v in
      let s2_nr, s2_uc = metrics Runs.Strawman2_v in
      Printf.printf "%-3s %-11s | %9.2f %9.2f %9.2f | %8.3f %8.3f %8.3f\n" id
        (Runs.get ~k_r:6 ~k_h:2 id).entry.label cm_nr s1_nr s2_nr cm_uc s1_uc s2_uc)
    (ids ())

(* ---------------- Figures 11-14: parameter sweeps ---------------- *)

let kr_values = [ 2; 6; 10 ]
let kh_values = [ 2; 4; 6 ]

let sweep_table title expectation ~param_values ~param_name ~value =
  header title expectation;
  Printf.printf "%-3s %-11s" "ID" "Network";
  List.iter (fun v -> Printf.printf " %s=%-8d" param_name v) param_values;
  print_newline ();
  List.iter
    (fun id ->
      let label = (Netgen.Nets.find id).label in
      Printf.printf "%-3s %-11s" id label;
      List.iter (fun v -> Printf.printf " %10.3f" (value id v)) param_values;
      print_newline ())
    (ids ())

let fig11 () =
  sweep_table "Figure 11: impact of k_R on route anonymity N_r (k_H = 2)"
    "k_R barely moves N_r (paper: 2.00 / 1.97 / 2.04 across k_R = 2/6/10)"
    ~param_values:kr_values ~param_name:"kR"
    ~value:(fun id k_r ->
      (Confmask.Metrics.route_anonymity (Runs.anon_dp (Runs.get ~k_r ~k_h:2 id))).nr_avg)

let fig12 () =
  sweep_table "Figure 12: impact of k_H on route anonymity N_r (k_R = 6)"
    "N_r grows with k_H (paper: 2.05 / 2.29 / 2.54 across k_H = 2/4/6)"
    ~param_values:kh_values ~param_name:"kH"
    ~value:(fun id k_h ->
      (Confmask.Metrics.route_anonymity (Runs.anon_dp (Runs.get ~k_r:6 ~k_h id))).nr_avg)

let fig13 () =
  sweep_table "Figure 13: impact of k_R on config utility U_C (k_H = 2)"
    "U_C drops as k_R grows (paper: 1% to 20% drop from k_R = 2 to 10)"
    ~param_values:kr_values ~param_name:"kR"
    ~value:(fun id k_r ->
      let r = Runs.get ~k_r ~k_h:2 id in
      Confmask.Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs)

let fig14 () =
  sweep_table "Figure 14: impact of k_H on config utility U_C (k_R = 6)"
    "U_C drops mildly as k_H grows (paper: 0% to 3% drop from k_H = 2 to 6)"
    ~param_values:kh_values ~param_name:"kH"
    ~value:(fun id k_h ->
      let r = Runs.get ~k_r:6 ~k_h id in
      Confmask.Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs)

(* ---------------- Figure 15 ---------------- *)

let fig15 () =
  header "Figure 15: route anonymity (N_r) versus config utility (U_C)"
    "loose negative correlation (paper: Pearson r = -0.36)";
  Printf.printf "%-3s %4s %4s %10s %10s\n" "ID" "kR" "kH" "N_r" "U_C";
  let points = ref [] in
  List.iter
    (fun id ->
      let cases =
        List.map (fun k_r -> (k_r, 2)) kr_values
        @ List.map (fun k_h -> (6, k_h)) kh_values
      in
      List.iter
        (fun (k_r, k_h) ->
          let r = Runs.get ~k_r ~k_h id in
          let nr = (Confmask.Metrics.route_anonymity (Runs.anon_dp r)).nr_avg in
          let uc =
            Confmask.Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs
          in
          points := (nr, uc) :: !points;
          Printf.printf "%-3s %4d %4d %10.2f %10.3f\n" id k_r k_h nr uc)
        (List.sort_uniq compare cases))
    (ids ());
  Printf.printf "Pearson r(N_r, U_C) = %.3f\n" (Confmask.Metrics.pearson !points)

(* ---------------- Figure 16 ---------------- *)

let fig16 () =
  header "Figure 16: end-to-end running time (k_R = 6, k_H = 2)"
    "strawman 1 fastest, ConfMask in between, strawman 2 slowest \
     (paper: s2 takes 8-100x ConfMask; FatTree-08 within minutes). \
     Hit-rate columns show the ConfMask run's engine cache reuse \
     (approximate when runs were prefetched in parallel).";
  Printf.printf "%-3s %-11s %12s %12s %12s %9s %9s %9s\n" "ID" "Network" "Strawman1"
    "ConfMask" "Strawman2" "spf-hit" "fib-hit" "bgp-skip";
  List.iter
    (fun id ->
      let t variant = (Runs.get ~variant ~k_r:6 ~k_h:2 id).seconds in
      let cm = Runs.get ~variant:Runs.Confmask_v ~k_r:6 ~k_h:2 id in
      Printf.printf
        "%-3s %-11s %11.2fs %11.2fs %11.2fs %8.1f%% %8.1f%% %9d\n" id
        (Netgen.Nets.find id).label (t Runs.Strawman1_v) cm.seconds
        (t Runs.Strawman2_v)
        (100.0
        *. Runs.hit_rate cm.stats ~reuse:"engine.spf_reuse"
             ~miss:"engine.spf_full")
        (100.0
        *. Runs.hit_rate cm.stats ~reuse:"engine.fib_reuse"
             ~miss:"engine.fib_build")
        (Runs.stat cm.stats "engine.bgp_skip"))
    (ids ())

(* ---------------- Table 3 ---------------- *)

let table3 () =
  header "Table 3: injected configuration lines by category"
    "filters dominate; interface lines vanish on FatTree (already \
     degree-regular); counts grow with k_R and k_H";
  Printf.printf "%-28s %10s %10s %10s %12s\n" "Network, Parameters" "#Protocol"
    "#Filter" "#Iface" "#Total lines";
  let row id k_r k_h =
    let r = Runs.get ~k_r ~k_h id in
    let b =
      Confmask.Metrics.line_breakdown ~orig:r.orig_configs ~anon:r.anon_configs
    in
    let total =
      Configlang.Count.total (Configlang.Count.of_configs r.anon_configs)
    in
    Printf.printf "%-28s %10d %10d %10d %12d\n"
      (Printf.sprintf "%s, kR=%d, kH=%d" r.entry.label k_r k_h)
      b.protocol_lines b.filter_lines b.interface_lines total
  in
  let sweeps = [ (2, 2); (6, 2); (6, 4); (10, 2) ] in
  let nets = if !fast then [ "CCNP"; "G" ] else [ "D"; "E"; "CCNP"; "H" ] in
  List.iter (fun id -> List.iter (fun (k_r, k_h) -> row id k_r k_h) sweeps) nets;
  if not !fast then row "F" 6 2

(* ---------------- Ablations (design choices of DESIGN.md) ---------------- *)

(* Fake-link cost policy: quantifies the §3.2 strawman discussion. *)
let ablation_cost () =
  header "Ablation: fake-link OSPF cost policy (k_R = 10, topology stage only)"
    "default cost migrates paths (low kept%); large cost keeps paths but no \
     fake link ever carries traffic; min_cost keeps distances and makes fake \
     links plausible (ConfMask's choice)";
  Printf.printf "%-3s %-12s %12s %18s\n" "ID" "policy" "kept paths" "fake links used";
  (* OSPF-only networks: in BGP networks fake eBGP adjacencies are not
     governed by the IGP cost, which would blur the comparison. *)
  let nets = if !fast then [ "G" ] else [ "G"; "D" ] in
  List.iter
    (fun id ->
      let entry = Netgen.Nets.find id in
      let configs = Netgen.Nets.configs entry in
      let orig = Routing.Simulate.run_exn configs in
      let dp0 = Routing.Simulate.dataplane orig in
      let hosts = List.map fst (Routing.Device.Smap.bindings orig.net.hosts) in
      List.iter
        (fun (policy, name) ->
          let rng = Netcore.Rng.create Runs.seed in
          let t =
            Confmask.Topo_anon.anonymize ~cost_policy:policy ~rng ~k:10 ~orig configs
          in
          match Routing.Simulate.run t.configs with
          | Error m -> Printf.printf "%-3s %-12s failed: %s\n" id name m
          | Ok snap ->
              let dp1 = Routing.Simulate.dataplane snap in
              let kept =
                Confmask.Metrics.kept_paths_fraction ~orig:dp0 ~anon:dp1 ~hosts
              in
              let fake_used =
                let used = Hashtbl.create 16 in
                List.iter
                  (fun (_, paths) ->
                    List.iter
                      (fun path ->
                        let rec edges = function
                          | u :: (v :: _ as rest) ->
                              let key = if u < v then (u, v) else (v, u) in
                              if List.mem key t.fake_edges then
                                Hashtbl.replace used key ();
                              edges rest
                          | _ -> ()
                        in
                        edges path)
                      paths)
                  (Routing.Dataplane.all_delivered dp1);
                Hashtbl.length used
              in
              Printf.printf "%-3s %-12s %11.1f%% %10d of %d\n" id name
                (100.0 *. kept) fake_used
                (List.length t.fake_edges))
        [
          (Confmask.Topo_anon.Default_cost, "default");
          (Confmask.Topo_anon.Large_cost, "large");
          (Confmask.Topo_anon.Min_cost, "min_cost");
        ])
    nets

(* Noise coefficient p of Algorithm 2. *)
let ablation_noise () =
  header "Ablation: route-anonymity noise coefficient p (k_R = 10, k_H = 2)"
    "larger p plants more filters (more rolled back on sparse nets); N_r \
     saturates — the paper's p = 0.1 sits at the knee";
  Printf.printf "%-3s %6s %10s %10s %10s\n" "ID" "p" "N_r" "filters" "rolled back";
  let nets = if !fast then [ "C"; "G" ] else [ "C"; "G"; "D" ] in
  List.iter
    (fun id ->
      let entry = Netgen.Nets.find id in
      let configs = Netgen.Nets.configs entry in
      List.iter
        (fun p ->
          let params =
            { Confmask.Workflow.default_params with k_r = 10; k_h = 2; noise = p }
          in
          match Confmask.Workflow.run ~params configs with
          | Error m -> Printf.printf "%-3s %6.2f failed: %s\n" id p m
          | Ok r ->
              let nr =
                Confmask.Metrics.route_anonymity
                  (Routing.Simulate.dataplane r.anon_snapshot)
              in
              Printf.printf "%-3s %6.2f %10.2f %10d %10d\n" id p nr.nr_avg
                r.anon_filters_added r.anon_filters_removed)
        [ 0.0; 0.05; 0.1; 0.3; 0.5 ])
    nets

(* Convergence speed: Algorithm 1 vs strawman 2 (§5.2's claim). *)
let ablation_iters () =
  header "Ablation: route-fixing convergence (k_R = 6)"
    "Algorithm 1 needs fewer simulations than strawman 2 on every network \
     (it repairs all routing-table entries per round, not one hop per pair)";
  Printf.printf "%-3s %-11s %14s %14s %12s %12s\n" "ID" "Network" "Alg1 iters"
    "S2 iters" "Alg1 filt" "S2 filt";
  List.iter
    (fun id ->
      let entry = Netgen.Nets.find id in
      let configs = Netgen.Nets.configs entry in
      let orig = Routing.Simulate.run_exn configs in
      let rng = Netcore.Rng.create Runs.seed in
      let t = Confmask.Topo_anon.anonymize ~rng ~k:6 ~orig configs in
      let alg1 = Confmask.Route_equiv.fix ~orig ~fake_edges:t.fake_edges t.configs in
      let s2 = Confmask.Strawman.strawman2 ~orig ~fake_edges:t.fake_edges t.configs in
      match (alg1, s2) with
      | Ok a, Ok s ->
          Printf.printf "%-3s %-11s %14d %14d %12d %12d\n" id entry.label
            a.iterations s.iterations a.filters_added s.filters_added
      | Error m, _ | _, Error m -> Printf.printf "%-3s %-11s failed: %s\n" id entry.label m)
    (ids ())

(* De-anonymization attacks (§2.2 threat model / §4.3 discussion). *)
let deanon () =
  header "De-anonymization: fake-link identification attacks (k_R = 6, k_H = 2)"
    "the uniform-filter attack recovers Strawman 1's fake links but close to \
     none of ConfMask's; fake links carry fake-host traffic, so the \
     no-traffic attack finds little on either";
  Printf.printf "%-3s %-10s | %22s | %22s | %5s\n" "ID" "variant" "uniform-filter attack"
    "no-traffic attack" "fakes";
  Printf.printf "%-3s %-10s | %10s %11s | %10s %11s |\n" "" "" "recall" "precision"
    "recall" "precision";
  let nets = if !fast then [ "B"; "C" ] else [ "B"; "C"; "D" ] in
  List.iter
    (fun id ->
      List.iter
        (fun variant ->
          let r = Runs.get ~variant ~k_r:6 ~k_h:2 id in
          let assess attack claimed =
            Redteam.Attack.edge_score ~attack ~truth:r.fake_edges ~claimed ()
          in
          let s1 =
            assess "filter_pattern"
              (Redteam.Links.filter_links r.anon_snapshot r.anon_configs)
          in
          let s2 =
            assess "no_traffic" (Redteam.Links.no_traffic_links r.anon_snapshot)
          in
          Printf.printf "%-3s %-10s | %9.1f%% %10.1f%% | %9.1f%% %10.1f%% | %5d\n" id
            (Runs.variant_name variant)
            (100.0 *. s1.recall) (100.0 *. s1.precision)
            (100.0 *. s2.recall) (100.0 *. s2.precision)
            (List.length r.fake_edges))
        [ Runs.Confmask_v; Runs.Strawman1_v ])
    nets

(* The red-team suite: the measured security budget per network. *)
let redteam () =
  header "Red team: de-anonymization attack suite (k_H = 2, PII scrub on)"
    "prefix_structure recall stays 1.0 (Crypto-PAn preserves the hierarchy \
     fingerprint); the legacy small-int key falls to the brute force; \
     fake-link and re-identification recall stay low at higher k_R";
  Printf.printf "%-3s %4s %-18s %7s %6s %9s %10s %8s\n" "ID" "k_R" "attack"
    "claims" "hits" "relevant" "precision" "recall";
  let nets = if !fast then [ "A"; "B" ] else [ "A"; "B"; "C"; "D" ] in
  List.iter
    (fun id ->
      let configs = Netgen.Nets.configs (Netgen.Nets.find id) in
      List.iter
        (fun k_r ->
          (* A legacy small-int key is exactly the weak configuration
             the brute-force attack is built to punish. *)
          let pii_key = Some (Pii.Pan.key_of_int 42) in
          let params =
            { Confmask.Workflow.default_params with
              k_r; k_h = 2; pii = true; pii_key }
          in
          match Confmask.Workflow.run ~params configs with
          | Error m -> Printf.printf "%-3s %4d failed: %s\n" id k_r m
          | Ok r ->
              List.iter
                (fun (s : Redteam.Attack.score) ->
                  Printf.printf "%-3s %4d %-18s %7d %6d %9d %10.3f %8.3f" id
                    k_r s.attack s.claims s.hits s.relevant s.precision
                    s.recall;
                  (match List.assoc_opt "top5_rate" s.detail with
                  | Some v -> Printf.printf "  top5=%.3f" v
                  | None -> ());
                  print_newline ())
                (Confmask.Audit.of_report ~key_range:4096 r))
        [ 2; 6 ])
    nets

(* Network scale obfuscation (§9 extension). *)
let ext_scale () =
  header "Extension: network scale obfuscation by fake router addition (§9)"
    "router count grows, functional equivalence and k-degree anonymity \
     still hold, utility degrades gracefully";
  Printf.printf "%-3s %12s %8s %8s %8s %8s %6s\n" "ID" "fake routers" "|R|" "k"
    "N_r" "U_C" "FE";
  let nets = if !fast then [ "G" ] else [ "G"; "D" ] in
  List.iter
    (fun id ->
      let configs = Netgen.Nets.configs (Netgen.Nets.find id) in
      List.iter
        (fun n ->
          let params =
            { Confmask.Workflow.default_params with k_r = 6; fake_routers = n }
          in
          match Confmask.Workflow.run ~params configs with
          | Error m -> Printf.printf "%-3s %12d failed: %s\n" id n m
          | Ok r ->
              let topo = Confmask.Metrics.topology_of_snapshot r.anon_snapshot in
              let nr =
                Confmask.Metrics.route_anonymity
                  (Routing.Simulate.dataplane r.anon_snapshot)
              in
              let uc =
                Confmask.Metrics.config_utility ~orig:r.orig_configs
                  ~anon:r.anon_configs
              in
              Printf.printf "%-3s %12d %8d %8d %8.2f %8.3f %6b\n" id n topo.routers
                topo.min_degree_group nr.nr_avg uc
                (Confmask.Workflow.functional_equivalence r))
        [ 0; 4; 8 ])
    nets

(* ---------------- driver ---------------- *)

let experiments =
  [
    ("table2", table2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("table3", table3);
    ("ablation-cost", ablation_cost);
    ("ablation-noise", ablation_noise);
    ("ablation-iters", ablation_iters);
    ("ext-scale", ext_scale);
    ("deanon", deanon);
    ("redteam", redteam);
  ]

let () =
  (* Counters are cheap (one atomic add each) and the hit-rate columns of
     fig16 needs them, so the whole harness runs with telemetry on. *)
  Netcore.Telemetry.set_enabled true;
  let only = ref [] in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--list" :: _ ->
        List.iter (fun (id, _) -> print_endline id) experiments;
        exit 0
    | "--only" :: id :: rest ->
        only := id :: !only;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> Netcore.Pool.set_default_jobs n
        | _ ->
            Printf.eprintf "--jobs expects a positive integer\n";
            exit 1);
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse args;
  let selected =
    if !only = [] then experiments
    else
      List.filter (fun (id, _) -> List.mem id !only) experiments
  in
  if selected = [] then begin
    Printf.eprintf "unknown experiment; use --list\n";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  (* Full runs warm the cache in parallel: the standard (k_r, k_h) combos
     cover every figure's ConfMask pipelines. *)
  if !only = [] then
    Runs.prefetch
      (List.concat_map
         (fun id ->
           List.map
             (fun (k_r, k_h) -> (id, k_r, k_h))
             [ (6, 2); (6, 4); (2, 2); (10, 2); (6, 6) ])
         (ids ()));
  List.iter (fun (_, f) -> f ()) selected;
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
