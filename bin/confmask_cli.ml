(* The confmask command-line tool: generate evaluation networks, anonymize
   a directory of configurations, simulate, and compare metrics. *)

open Cmdliner

(* Exit-code discipline: cmdliner reports usage errors itself (124);
   everything a command body raises is classified here — problems with
   the user's input exit 1 with a plain message, anything else is an
   internal invariant violation and exits 2. No bare [failwith] ever
   reaches the user as an uncaught exception. *)
let guard f =
  try f ()
  with e ->
    let cls, msg = Confmask.Batch.classify e in
    let what = if cls = "input" then "" else "internal error: " in
    Printf.eprintf "confmask: %s%s\n" what msg;
    Confmask.Batch.exit_code cls

let read_dir = Confmask.Batch.read_config_dir
let simulate_dir = Confmask.Batch.simulate_dir

let write_configs ~format dir configs =
  Confmask.Batch.write_configs ~format dir configs;
  Printf.printf "wrote %d configurations to %s\n" (List.length configs) dir

(* ---- generate ---- *)

let generate net out format =
  guard @@ fun () ->
  write_configs ~format out (Confmask.Batch.load_source (Catalog net));
  0

let net_arg =
  let doc =
    "Network to generate: A-H from the evaluation catalog (Table 2), or a \
     label such as 'enterprise', 'fattree04', 'uscarrier', 'ccnp'."
  in
  Arg.(required & opt (some string) None & info [ "net" ] ~docv:"ID" ~doc)

let out_arg =
  Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
         ~doc:"Output directory for .cfg files.")

let format_arg =
  let vendors =
    [ ("cisco", Configlang.Vendor.Cisco); ("junos", Configlang.Vendor.Junos) ]
  in
  Arg.(value & opt (enum vendors) Configlang.Vendor.Cisco
       & info [ "format" ] ~docv:"VENDOR"
           ~doc:"Output dialect: 'cisco' (CiscoLite) or 'junos' (JunosLite). \
                 Input files are auto-detected per file.")

let generate_cmd =
  let info = Cmd.info "generate" ~doc:"Generate an evaluation network's configurations" in
  Cmd.v info Term.(const generate $ net_arg $ out_arg $ format_arg)

(* ---- pool and telemetry flags (shared by the analysis commands) ---- *)

let set_jobs n = if n >= 1 then Netcore.Pool.set_default_jobs n

let setup ~jobs ~trace ~metrics_out ~selfcheck =
  set_jobs jobs;
  if trace || metrics_out <> None then Netcore.Telemetry.set_enabled true;
  if selfcheck then Routing.Engine.set_selfcheck true

let emit_telemetry ~trace ~metrics_out =
  if trace then Netcore.Telemetry.pp_report Format.err_formatter ();
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Netcore.Telemetry.report_json ())))
    metrics_out

let trace_arg =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Print a span/counter telemetry report to stderr when done.")

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write the span/counter telemetry report to $(docv) as JSON.")

let selfcheck_arg =
  Arg.(value & flag & info [ "selfcheck" ]
         ~doc:"Shadow every incremental simulation step with a from-scratch \
               one and abort on any FIB divergence (slow; for validation).")

(* ---- anonymize ---- *)

(* Every PII key on the command line is a full 64-bit hex key. *)
let parse_key s =
  match Pii.Pan.key_of_string s with
  | Ok k -> k
  | Error m -> Confmask.Batch.input_error "bad key '%s': %s" s m

let jobs_arg =
  Arg.(value & opt int 0 & info [ "jobs" ] ~docv:"N"
         ~doc:"Size of the simulation worker pool (default: the number of \
               available cores).")

let anonymize in_dir out_dir format k_r k_h noise seed pii_key fake_routers
    jobs cache_dir trace metrics_out selfcheck =
  guard @@ fun () ->
  setup ~jobs ~trace ~metrics_out ~selfcheck;
  let cache = Option.map Routing.Engine.open_cache cache_dir in
  let configs = read_dir in_dir in
  let pii_key = Option.map parse_key pii_key in
  let params =
    { Confmask.Workflow.k_r; k_h; noise; seed; pii = Option.is_some pii_key;
      pii_key; fake_routers }
  in
  match Confmask.Workflow.run ~params ?cache configs with
  | Error m ->
      Printf.eprintf "anonymization failed: %s\n" m;
      1
  | Ok r ->
      (* Checked before the telemetry goes out, so the report covers the
         data-plane extraction the check runs. *)
      let equivalent = Confmask.Workflow.functional_equivalence r in
      emit_telemetry ~trace ~metrics_out;
      write_configs ~format out_dir r.anon_configs;
      (* The owner-side secret: which elements are fake. Needed to
         interpret answers coming back from collaborators; never share. *)
      Out_channel.with_open_text (Filename.concat out_dir "confmask-secrets.txt") (fun oc ->
          Printf.fprintf oc "# Private mapping - do NOT share with the configs\n";
          List.iter (fun (u, v) -> Printf.fprintf oc "fake-link %s %s\n" u v) r.fake_edges;
          List.iter
            (fun (f, real) -> Printf.fprintf oc "fake-host %s (copy of %s)\n" f real)
            r.fake_hosts;
          List.iter (fun fr -> Printf.fprintf oc "fake-router %s\n" fr) r.fake_router_names);
      let topo = Confmask.Metrics.topology_of_snapshot r.anon_snapshot in
      (* U_C pairs files by hostname, so the originals take the names
         the PII scrub gave them. *)
      let renamed (c : Configlang.Ast.config) =
        let hostname = List.assoc_opt c.hostname r.name_map in
        { c with hostname = Option.value ~default:c.hostname hostname }
      in
      let orig = List.map renamed r.orig_configs in
      let uc = Confmask.Metrics.config_utility ~orig ~anon:r.anon_configs in
      Option.iter
        (Printf.eprintf "confmask: warning: %s\n")
        (Confmask.Workflow.kr_shortfall r ~achieved:topo.min_degree_group);
      Printf.printf
        "fake links: %d\nfake hosts: %d\nfake routers: %d\n\
         route-equivalence iterations: %d\n\
         filters (equivalence): %d\nfilters (anonymity): %d (+%d rolled back)\n\
         topology anonymity k: %d\nconfig utility U_C: %.3f\n\
         functional equivalence: %b\n"
        (List.length r.fake_edges)
        (List.length r.fake_hosts)
        (List.length r.fake_router_names)
        r.equiv_iterations r.equiv_filters r.anon_filters_added
        r.anon_filters_removed topo.min_degree_group uc equivalent;
      0

let in_arg =
  Arg.(required & opt (some dir) None & info [ "in" ] ~docv:"DIR"
         ~doc:"Directory of original .cfg files.")

(* Every job default is [Workflow.default_params]'. *)
let default = Confmask.Workflow.default_params

let kr_arg =
  Arg.(value & opt int default.k_r & info [ "kr" ] ~docv:"K"
         ~doc:"Topology anonymity parameter $(docv) (k-degree anonymity).")

let kh_arg =
  Arg.(value & opt int default.k_h & info [ "kh" ] ~docv:"K"
         ~doc:"Route anonymity parameter $(docv) (fake hosts per real host).")

let noise_arg =
  Arg.(value & opt float default.noise & info [ "noise" ] ~docv:"P"
         ~doc:"Noise coefficient of the route anonymization algorithm.")

let seed_arg =
  Arg.(value & opt int default.seed & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let pii_key_arg =
  Arg.(value & opt (some string) None & info [ "pii-key" ] ~docv:"KEY"
         ~doc:"Also run the PII add-on (prefix-preserving IP anonymization, \
               device renaming, secret redaction) under $(docv), a 64-bit \
               key of exactly 16 hex digits ('0xdeadbeefcafef00d'). Without \
               it nothing is scrubbed.")

let fake_routers_arg =
  Arg.(value & opt int default.fake_routers & info [ "fake-routers" ] ~docv:"N"
         ~doc:"Network-scale obfuscation: add $(docv) fake routers before \
               topology anonymization (IGP-only networks).")

let cache_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Persistent simulation cache directory: whole from-scratch \
               simulations and BGP fixpoints are reused across runs. \
               Results are identical with and without it.")

let anonymize_cmd =
  let info = Cmd.info "anonymize" ~doc:"Anonymize a directory of configurations" in
  Cmd.v info
    Term.(const anonymize $ in_arg $ out_arg $ format_arg $ kr_arg $ kh_arg $ noise_arg
          $ seed_arg $ pii_key_arg $ fake_routers_arg $ jobs_arg
          $ cache_arg $ trace_arg $ metrics_out_arg $ selfcheck_arg)

(* ---- simulate ---- *)

let simulate in_dir show_paths jobs trace metrics_out =
  guard @@ fun () ->
  setup ~jobs ~trace ~metrics_out ~selfcheck:false;
  let _, snap = simulate_dir in_dir in
  emit_telemetry ~trace ~metrics_out;
  let g = Routing.Device.router_graph snap.net in
  Printf.printf "routers: %d\nhosts: %d\nrouter links: %d\n"
    (Netcore.Graph.num_nodes g)
    (Routing.Device.Smap.cardinal snap.net.hosts)
    (Netcore.Graph.num_edges g);
  let dp = Routing.Simulate.dataplane snap in
  let delivered = Routing.Dataplane.all_delivered dp in
  Printf.printf "host pairs with a route: %d\n" (List.length delivered);
  if show_paths then
    List.iter
      (fun ((s, d), paths) ->
        List.iter
          (fun p -> Printf.printf "%s -> %s: %s\n" s d (String.concat " " p))
          paths)
      delivered;
  0

let paths_arg =
  Arg.(value & flag & info [ "paths" ] ~doc:"Print every host-to-host path.")

let simulate_cmd =
  let info = Cmd.info "simulate" ~doc:"Simulate a directory of configurations" in
  Cmd.v info
    Term.(const simulate $ in_arg $ paths_arg $ jobs_arg $ trace_arg
          $ metrics_out_arg)

(* ---- metrics ---- *)

let metrics orig_dir anon_dir =
  guard @@ fun () ->
  let orig_configs, orig = simulate_dir orig_dir in
  let anon_configs, anon = simulate_dir anon_dir in
  let dp0 = Routing.Simulate.dataplane orig in
  let dp1 = Routing.Simulate.dataplane anon in
  let hosts = List.map fst (Routing.Device.Smap.bindings orig.net.hosts) in
  let nr0 = Confmask.Metrics.route_anonymity dp0 in
  let nr1 = Confmask.Metrics.route_anonymity dp1 in
  let t0 = Confmask.Metrics.topology_of_snapshot orig in
  let t1 = Confmask.Metrics.topology_of_snapshot anon in
  let kept = Confmask.Metrics.kept_paths_fraction ~orig:dp0 ~anon:dp1 ~hosts in
  let uc = Confmask.Metrics.config_utility ~orig:orig_configs ~anon:anon_configs in
  let d = Spec.compare_specs ~orig:(Spec.mine dp0) ~anon:(Spec.mine dp1) in
  Printf.printf
    "route anonymity N_r: %.2f -> %.2f\nkept paths: %.1f%%\n\
     topology anonymity k: %d -> %d\nclustering coefficient: %.3f -> %.3f\n\
     config utility U_C: %.3f\nkept specifications: %.1f%%\n"
    nr0.nr_avg nr1.nr_avg (100.0 *. kept) t0.min_degree_group
    t1.min_degree_group t0.clustering t1.clustering uc
    (100.0 *. Spec.kept_fraction d);
  0

(* ---- deanon ---- *)

let deanon in_dir =
  guard @@ fun () ->
  let configs, snap = simulate_dir in_dir in
  let report attack links =
    Printf.printf "links flagged by the %s attack: %d\n" attack (List.length links);
    List.iter (fun (u, v) -> Printf.printf "  %s -- %s\n" u v) links
  in
  report "uniform-filter" (Redteam.Links.filter_links snap configs);
  report "no-traffic" (Redteam.Links.no_traffic_links snap);
  0

let deanon_cmd =
  let info =
    Cmd.info "deanon"
      ~doc:"Run the fake-link identification attacks against a (shared) \
            configuration directory - the adversary's view"
  in
  Cmd.v info Term.(const deanon $ in_arg)

let orig_arg =
  Arg.(required & opt (some dir) None & info [ "orig" ] ~docv:"DIR"
         ~doc:"Original configuration directory.")

let anon_arg =
  Arg.(required & opt (some dir) None & info [ "anon" ] ~docv:"DIR"
         ~doc:"Anonymized configuration directory.")

let metrics_cmd =
  let info = Cmd.info "metrics" ~doc:"Compare an original and an anonymized network" in
  Cmd.v info Term.(const metrics $ orig_arg $ anon_arg)

(* ---- redteam ---- *)

let redteam orig_dir anon_dir attacks key key_range json jobs trace metrics_out =
  guard @@ fun () ->
  setup ~jobs ~trace ~metrics_out ~selfcheck:false;
  let scores =
    Confmask.Recipient.redteam
      { orig_dir; anon_dir; attacks = (match attacks with [] -> None | l -> Some l);
        key_range; pii_key = Option.map parse_key key; tenant = None }
  in
  emit_telemetry ~trace ~metrics_out;
  if json then
    print_endline (Netcore.Json.to_string (Confmask.Audit.to_json scores))
  else begin
    Printf.printf "%-18s %7s %6s %9s %10s %8s\n" "attack" "claims" "hits"
      "relevant" "precision" "recall";
    List.iter
      (fun (s : Redteam.Attack.score) ->
        Printf.printf "%-18s %7d %6d %9d %10.3f %8.3f" s.attack s.claims s.hits
          s.relevant s.precision s.recall;
        List.iter (fun (k, v) -> Printf.printf "  %s=%.3f" k v) s.detail;
        print_newline ())
      scores
  end;
  0

let attacks_arg =
  Arg.(value & opt (list string) [] & info [ "attacks" ] ~docv:"LIST"
         ~doc:"Comma-separated attack subset (degree_reid, filter_pattern, \
               no_traffic, prefix_structure, key_bruteforce). Default: all.")

let redteam_key_arg =
  Arg.(value & opt (some string) None & info [ "key" ] ~docv:"KEY"
         ~doc:"Plant the PII key the pair was scrubbed with (16 hex \
               digits), so the key_bruteforce attack's recovery is verified \
               against it.")

let key_range_arg =
  Arg.(value & opt (some int) None & info [ "key-range" ] ~docv:"N"
         ~doc:"Seed range the key brute-force scans (default 65536).")

let redteam_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the per-attack score report as JSON on stdout.")

let redteam_cmd =
  let info =
    Cmd.info "redteam"
      ~doc:"Run the de-anonymization attack suite against an original / \
            anonymized configuration pair and report each attack's \
            precision and recall (re-identification rate) — the measured \
            security budget of the anonymization parameters"
  in
  Cmd.v info
    Term.(const redteam $ orig_arg $ anon_arg $ attacks_arg $ redteam_key_arg
          $ key_range_arg $ redteam_json_arg $ jobs_arg $ trace_arg
          $ metrics_out_arg)

(* ---- verify ---- *)

let verify orig_dir anon_dir policies_file json jobs trace metrics_out =
  guard @@ fun () ->
  setup ~jobs ~trace ~metrics_out ~selfcheck:false;
  let v =
    Confmask.Recipient.verify
      { orig_dir; anon_dir; policies = None; policies_file; entries = true }
  in
  emit_telemetry ~trace ~metrics_out;
  let s = v.Confmask.Verify.summary in
  if json then print_endline (Netcore.Json.to_string (Confmask.Verify.to_json v))
  else begin
    Printf.printf
      "policies: %d\nholds_both: %d\nlost: %d\nintroduced: %d\n\
       holds_neither: %d\nfake_only: %d\nkept: %.1f%%\n"
      s.total s.holds_both s.lost s.introduced s.holds_neither s.fake_only
      (100.0 *. s.kept_fraction);
    List.iter
      (fun (e : Spec.Query.entry) ->
        match e.e_verdict with
        | Spec.Query.Lost | Spec.Query.Introduced ->
            let evidence =
              let o =
                if e.e_verdict = Spec.Query.Lost then e.e_anon
                else Option.value ~default:e.e_anon e.e_orig
              in
              match (o.witness, o.counterexample) with
              | [], p :: _ | p :: _, [] -> "  e.g. " ^ String.concat " " p
              | _ -> ""
            in
            Printf.printf "%s: %s%s\n"
              (Spec.Query.verdict_to_string e.e_verdict)
              (Spec.Query.to_string e.e_policy)
              evidence
        | _ -> ())
      (Option.value ~default:[] v.Confmask.Verify.entries)
  end;
  (* Exit discipline: every policy that held on the original must still
     hold on the anonymized network; anything lost is a verification
     failure (input class — the shared configs do not honor the policies,
     nothing internal broke). *)
  if s.lost = 0 then 0 else 1

let policies_arg =
  Arg.(value & opt (some string) None & info [ "policies" ] ~docv:"FILE"
         ~doc:"Policy file to check: one policy per line — \
               $(b,reach(src, dst)), $(b,waypoint(src, dst, via)), \
               $(b,isolation(src, dst)), $(b,loadbalance(src, dst, n)), \
               $(b,pathlength(src, dst, n)), $(b,blackhole(src, dst)), \
               $(b,inconsistent(src, dst)), $(b,loop(src, dst)) — \
               with '#' comments, or a JSON array of \
               {\"type\", \"src\", \"dst\", \"via\", \"paths\", \"length\"} \
               objects. Default: the mined specification of the original \
               network.")

let verify_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the full machine-readable report (summary counts plus \
               one entry per policy with verdict and witness/counterexample \
               paths) as JSON on stdout.")

let verify_cmd =
  let info =
    Cmd.info "verify"
      ~doc:"Differentially verify policies on an original vs. anonymized \
            configuration pair: evaluate each policy (or the whole mined \
            specification) on both simulated data planes and report a \
            typed verdict — holds_both, lost, introduced, holds_neither, \
            fake_only — with witness and counterexample paths. Exits 0 \
            when no policy is lost, 1 otherwise."
  in
  Cmd.v info
    Term.(const verify $ orig_arg $ anon_arg $ policies_arg $ verify_json_arg
          $ jobs_arg $ trace_arg $ metrics_out_arg)


(* ---- diff ---- *)

let diff orig_dir anon_dir =
  guard @@ fun () ->
  let orig = read_dir orig_dir in
  let anon = read_dir anon_dir in
  Printf.printf "%-16s %10s %10s %10s %10s\n" "device" "protocol" "filter" "iface"
    "other";
  let find cs name =
    List.find_opt (fun (c : Configlang.Ast.config) -> c.hostname = name) cs
  in
  List.iter
    (fun (a : Configlang.Ast.config) ->
      let o = find orig a.hostname in
      let b =
        Confmask.Metrics.line_breakdown ~orig:(Option.to_list o) ~anon:[ a ]
      in
      if Configlang.Count.total b > 0 then
        Printf.printf "%-16s %10d %10d %10d %10d%s\n" a.hostname b.protocol_lines
          b.filter_lines b.interface_lines b.other_lines
          (if o = None then "  (new device)" else ""))
    anon;
  let total = Confmask.Metrics.line_breakdown ~orig ~anon in
  Printf.printf "%-16s %10d %10d %10d %10d\n" "TOTAL" total.protocol_lines
    total.filter_lines total.interface_lines total.other_lines;
  Printf.printf "config utility U_C = %.3f\n"
    (Confmask.Metrics.config_utility ~orig ~anon);
  0

let diff_cmd =
  let info =
    Cmd.info "diff"
      ~doc:"Summarize the lines an anonymization run injected, per device and \
            category (the Table 3 view)"
  in
  Cmd.v info Term.(const diff $ orig_arg $ anon_arg)

(* ---- batch ---- *)

let parse_addr s =
  match Netcore.Server.addr_of_string s with
  | Ok a -> a
  | Error m -> Confmask.Batch.input_error "%s" m

let batch nets in_dirs k_rs k_hs out format seed noise resume limit cache_dir
    no_cache jobs server tenant trace metrics_out =
  guard @@ fun () ->
  setup ~jobs ~trace ~metrics_out ~selfcheck:false;
  if nets = [] && in_dirs = [] then
    Confmask.Batch.input_error "one of --nets or --in-dirs is required";
  if tenant <> None && server = None then
    Confmask.Batch.input_error "--tenant requires --server";
  let job_list =
    Confmask.Batch.grid_jobs ~seed ~noise ~nets ~k_rs ~k_hs ()
    @ Confmask.Batch.dir_jobs ~seed ~noise ~dirs:in_dirs ~k_rs ~k_hs ()
  in
  let server = Option.map parse_addr server in
  let cache =
    (* In client mode the daemon's resident cache does the caching. *)
    if no_cache || server <> None then None
    else
      let dir = Option.value cache_dir ~default:(Filename.concat out "cache") in
      Some (Routing.Engine.open_cache dir)
  in
  let o =
    Confmask.Batch.run ?cache ?server ?tenant ~resume ?limit ~format ~out
      job_list
  in
  emit_telemetry ~trace ~metrics_out;
  Printf.printf "jobs: %d ok (%d reused), %d errors, %d pending\nmanifest: %s\n"
    o.ok o.reused o.errors o.pending
    (Confmask.Batch.manifest_path out);
  o.exit_code

let nets_arg =
  Arg.(value & opt (list string) [] & info [ "nets" ] ~docv:"IDS"
         ~doc:"Comma-separated evaluation networks (A-H, CCNP, or labels) to \
               put on the grid.")

let in_dirs_arg =
  Arg.(value & opt (list string) [] & info [ "in-dirs" ] ~docv:"DIRS"
         ~doc:"Comma-separated directories of .cfg files to put on the grid.")

let krs_arg =
  Arg.(value & opt (list int) [ default.k_r ] & info [ "kr" ] ~docv:"KS"
         ~doc:"Comma-separated topology anonymity parameters of the grid.")

let khs_arg =
  Arg.(value & opt (list int) [ default.k_h ] & info [ "kh" ] ~docv:"KS"
         ~doc:"Comma-separated route anonymity parameters of the grid.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Skip jobs whose result.json parses and reports success, \
               reusing their records; failed or unparsable ones are \
               re-executed.")

let limit_arg =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
         ~doc:"Execute at most $(docv) jobs this run (reused jobs are free); \
               the rest are recorded as pending. Deterministic way to \
               interrupt and later $(b,--resume) a batch.")

let batch_cache_arg =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
         ~doc:"Persistent simulation cache shared by all jobs (default: \
               $(b,OUT)/cache).")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Disable the persistent simulation cache (force cold runs).")

let server_arg =
  Arg.(value & opt (some string) None & info [ "server" ] ~docv:"ADDR"
         ~doc:"Run as a client of a live $(b,confmask serve) daemon at \
               $(docv) ('unix:PATH', 'tcp:HOST:PORT', or a bare port): each \
               job becomes one request, the daemon executes it with its \
               resident caches and writes the per-job outputs, and the \
               manifest is assembled locally. Queue-full rejections are \
               retried with backoff.")

let batch_tenant_arg =
  Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"NAME"
         ~doc:"Scrub PII under the key the daemon has registered for \
               tenant $(docv). Requires $(b,--server).")

let batch_cmd =
  let info =
    Cmd.info "batch"
      ~doc:"Run an anonymization grid (networks x kr x kh), sharded across \
            the worker pool, with per-job fault isolation, a JSON results \
            manifest and resumable progress"
  in
  Cmd.v info
    Term.(const batch $ nets_arg $ in_dirs_arg $ krs_arg $ khs_arg $ out_arg
          $ format_arg $ seed_arg $ noise_arg $ resume_arg $ limit_arg
          $ batch_cache_arg $ no_cache_arg $ jobs_arg $ server_arg
          $ batch_tenant_arg $ trace_arg $ metrics_out_arg)

(* ---- serve ---- *)

let parse_tenant s =
  match String.split_on_char '=' s with
  | [ name; key ] when name <> "" && key <> "" -> (name, parse_key key)
  | _ -> Confmask.Batch.input_error "bad --tenant '%s' (want NAME=KEY)" s

let serve listen queue_cap workers cache_dir jobs tenants trace =
  guard @@ fun () ->
  set_jobs jobs;
  let addr = parse_addr listen in
  let tenants = List.map parse_tenant tenants in
  let cache = Option.map Routing.Engine.open_cache cache_dir in
  let t =
    Confmask.Serve.create
      { Confmask.Serve.addr; queue_cap; workers; cache; tenants }
  in
  (* initiate_shutdown only flips an atomic, so it is safe here. *)
  let stop _ = Netcore.Server.initiate_shutdown t in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.printf
    "confmask serve: listening on %s (queue %d, workers %d, cache %s)\n%!"
    (Netcore.Server.addr_to_string addr)
    queue_cap workers
    (Option.value cache_dir ~default:"off");
  Netcore.Server.run t;
  if trace then Netcore.Telemetry.pp_report Format.err_formatter ();
  Printf.printf "confmask serve: drained, exiting\n%!";
  0

let listen_arg =
  Arg.(value & opt string "unix:confmask.sock"
       & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Address to serve on: 'unix:PATH', 'tcp:HOST:PORT', or a bare \
                 port number (TCP on 127.0.0.1).")

let queue_arg =
  Arg.(value & opt int Confmask.Serve.default_queue_cap
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-control bound: requests beyond $(docv) already \
                 queued are rejected immediately with a 'queue_full' error.")

let workers_arg =
  Arg.(value & opt int Confmask.Serve.default_workers
       & info [ "workers" ] ~docv:"N"
           ~doc:"Concurrent request executors. Each job parallelizes its \
                 simulations internally across the domain pool, so 1 is \
                 usually right; raise it to overlap small jobs.")

let tenants_arg =
  Arg.(value & opt_all string [] & info [ "tenant" ] ~docv:"NAME=KEY"
         ~doc:"Register a tenant whose requests scrub PII under $(i,KEY), \
               a 64-bit key of exactly 16 hex digits ('0x...'; \
               repeatable). Requests naming an unregistered tenant are \
               rejected.")

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:"Run the resident anonymization daemon: the worker pool and \
            the persistent simulation cache stay warm across \
            requests arriving as JSON lines over a Unix or TCP socket, with \
            a bounded queue, typed overload rejections and graceful \
            drain-on-shutdown"
  in
  Cmd.v info
    Term.(const serve $ listen_arg $ queue_arg $ workers_arg $ cache_arg
          $ jobs_arg $ tenants_arg $ trace_arg)

(* ---- call ---- *)

let call connect request =
  guard @@ fun () ->
  let addr = parse_addr connect in
  let req =
    match request with
    | Some r -> r
    | None -> ( try input_line stdin with End_of_file -> "")
  in
  match Netcore.Server.request addr req with
  | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
      Confmask.Batch.input_error "no confmask serve daemon reachable at %s"
        (Netcore.Server.addr_to_string addr)
  | resp ->
      print_endline resp;
      match Netcore.Json.parse resp with
      | Ok j when Netcore.Json.member "ok" j = Some (Netcore.Json.Bool true) -> 0
      | _ -> 1

let connect_arg =
  Arg.(value & opt string "unix:confmask.sock"
       & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Daemon address: 'unix:PATH', 'tcp:HOST:PORT', or a bare \
                 port number (TCP on 127.0.0.1).")

let request_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"REQUEST"
           ~doc:"One JSON request line, e.g. '{\"op\": \"stats\"}' (default: \
                 read one line from stdin).")

let call_cmd =
  let info =
    Cmd.info "call"
      ~doc:"Send one JSON request line to a running confmask serve daemon \
            and print the response line (exit 0 when the response reports \
            \"ok\": true, 1 otherwise)"
  in
  Cmd.v info Term.(const call $ connect_arg $ request_arg)

let () =
  let info =
    Cmd.info "confmask" ~version:"1.0.0"
      ~doc:"Privacy-preserving network configuration sharing via anonymization"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ generate_cmd; anonymize_cmd; batch_cmd; serve_cmd; call_cmd;
            simulate_cmd; metrics_cmd; verify_cmd; diff_cmd; deanon_cmd;
            redteam_cmd ]))
