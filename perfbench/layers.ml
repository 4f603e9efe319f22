(* Benchmark helper for run.py.

   [emit] writes a catalog network's configurations with a seeded
   per-file vendor dialect, so the parsers of both dialects run.

   [oneshot] and [serve] are traced replicas: they call the stage
   functions that [confmask anonymize] and a served job ([Batch.execute])
   call, in the same order and with the same arguments, and time each
   call from outside. Each timed call is one flat span; a minor
   collection and a [Gc.quick_stat] on both sides of it give the words
   it allocated (pool-worker domains included) and how far it raised the
   peak major heap. Counters are the product's own, read as deltas of
   [Netcore.Telemetry.counters] over the whole replica. The result is one
   JSON object on stdout. *)

open Confmask
module Json = Netcore.Json
module Clock = Netcore.Clock
module Telemetry = Netcore.Telemetry
module Vendor = Configlang.Vendor

(* ---- layer spans ---- *)

type layer = {
  mutable seconds : float;
  mutable alloc_words : float;
  mutable heap_growth_words : int;
}

let layers : (string * layer) list ref = ref []

let layer name =
  match List.assoc_opt name !layers with
  | Some l -> l
  | None ->
      let l = { seconds = 0.; alloc_words = 0.; heap_growth_words = 0 } in
      layers := !layers @ [ (name, l) ];
      l

let gc_point () =
  Gc.minor ();
  Gc.quick_stat ()

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let span name f =
  let s0 = gc_point () in
  let t0 = Clock.now () in
  let r = f () in
  let dt = Clock.elapsed t0 in
  let s1 = gc_point () in
  let l = layer name in
  l.seconds <- l.seconds +. dt;
  l.alloc_words <- l.alloc_words +. (allocated s1 -. allocated s0);
  l.heap_growth_words <-
    l.heap_growth_words + (s1.top_heap_words - s0.top_heap_words);
  r

let get what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* ---- the pipeline, stage by stage (Workflow.run without fake routers) ---- *)

let pipeline ~(params : Workflow.params) ?cache orig_configs =
  let rng = Netcore.Rng.create params.seed in
  let orig_snapshot =
    span "routing.baseline" (fun () ->
        match cache with
        | None -> Routing.Simulate.run orig_configs
        | Some _ ->
            Result.map Routing.Engine.snapshot
              (Routing.Engine.of_configs ?cache orig_configs))
    |> get "baseline"
  in
  let topo =
    span "topo.anonymize" (fun () ->
        Topo_anon.anonymize ~rng ~k:params.k_r ~orig:orig_snapshot orig_configs)
  in
  let equiv =
    span "equiv.fix" (fun () ->
        Route_equiv.fix ?cache ~orig:orig_snapshot ~fake_edges:topo.fake_edges
          topo.configs)
    |> get "equiv"
  in
  let anon =
    span "anon.anonymize" (fun () ->
        Route_anon.anonymize ~rng ~k_h:params.k_h ~p:params.noise
          ~engine:equiv.engine equiv.configs)
    |> get "anon"
  in
  let anon_configs, name_map =
    if params.pii then
      let key =
        match params.pii_key with
        | Some k -> k
        | None -> Pii.Pan.key_of_int params.seed
      in
      span "pii.scrub" (fun () ->
          let rename = Pii.Scrub.default_rename anon.configs in
          ( Pii.Scrub.scrub ~rename ~key anon.configs,
            List.map
              (fun (c : Configlang.Ast.config) -> (c.hostname, rename c.hostname))
              anon.configs ))
    else (anon.configs, [])
  in
  let anon_snapshot =
    if params.pii then
      span "pii.resimulate" (fun () -> Routing.Simulate.run anon_configs)
      |> get "resimulate"
    else Routing.Engine.snapshot anon.engine
  in
  {
    Workflow.params;
    orig_configs;
    anon_configs;
    orig_snapshot;
    anon_snapshot;
    fake_edges = topo.fake_edges;
    fake_hosts = anon.fake_hosts;
    fake_router_names = [];
    name_map;
    equiv_iterations = equiv.iterations;
    equiv_filters = equiv.filters_added;
    anon_filters_added = anon.filters_added;
    anon_filters_removed = anon.filters_removed;
  }

(* Workflow.functional_equivalence, split into data-plane extraction and
   the comparison. *)
let equivalence (r : Workflow.report) =
  if r.params.pii then true
  else
    let topo_preserved =
      let g0 = Routing.Device.router_graph r.orig_snapshot.net in
      let g1 = Routing.Device.router_graph r.anon_snapshot.net in
      List.for_all (fun n -> Netcore.Graph.mem_node n g1) (Netcore.Graph.nodes g0)
      && List.for_all
           (fun (u, v) -> Netcore.Graph.mem_edge u v g1)
           (Netcore.Graph.edges g0)
      && Routing.Device.Smap.for_all
           (fun h _ -> Routing.Device.Smap.mem h r.anon_snapshot.net.hosts)
           r.orig_snapshot.net.hosts
    in
    topo_preserved
    &&
    let dp_orig, dp_anon =
      span "check.dataplane" (fun () ->
          ( Routing.Simulate.dataplane r.orig_snapshot,
            Routing.Simulate.dataplane r.anon_snapshot ))
    in
    span "check.compare" (fun () ->
        Routing.Dataplane.equal_on ~hosts:(Workflow.real_hosts r) dp_orig dp_anon)

(* ---- output ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let print_cisco (r : Workflow.report) =
  span "configlang.print" (fun () ->
      List.map
        (fun (c : Configlang.Ast.config) -> (c.hostname, Vendor.print Vendor.Cisco c))
        r.anon_configs)

let write_configs dir texts =
  mkdir_p dir;
  List.iter (fun (host, text) -> write_file (Filename.concat dir (host ^ ".cfg")) text) texts

let num f = Json.Num f
let int n = Json.Num (float_of_int n)

let layers_json () =
  let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576. in
  Json.Obj
    (List.map
       (fun (name, l) ->
         ( name,
           Json.Obj
             [
               ("seconds", num l.seconds);
               ("alloc_mw", num (l.alloc_words /. 1e6));
               ("top_heap_mb", num (words_mb (float_of_int l.heap_growth_words)));
             ] ))
       !layers)

let counter_deltas before =
  let base = Hashtbl.of_seq (List.to_seq before) in
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, int (v - Option.value ~default:0 (Hashtbl.find_opt base name))))
       (Telemetry.counters ()))

(* ---- oneshot: the [confmask anonymize] command body ---- *)

let oneshot ~in_dir ~out_dir ~k_r ~k_h ~seed ~pool =
  Netcore.Pool.set_default_jobs pool;
  Telemetry.set_enabled true;
  let before = Telemetry.counters () in
  let t0 = Clock.now () in
  let configs = span "configlang.parse" (fun () -> Batch.read_config_dir in_dir) in
  let params = { Workflow.default_params with k_r; k_h; seed } in
  let r = pipeline ~params configs in
  let texts = print_cisco r in
  span "io.write" (fun () ->
      write_configs out_dir texts;
      let oc = open_out (Filename.concat out_dir "confmask-secrets.txt") in
      Printf.fprintf oc "# Private mapping - do NOT share with the configs\n";
      List.iter (fun (u, v) -> Printf.fprintf oc "fake-link %s %s\n" u v) r.fake_edges;
      List.iter
        (fun (fake, real) -> Printf.fprintf oc "fake-host %s (copy of %s)\n" fake real)
        r.fake_hosts;
      close_out oc);
  let topo =
    span "metrics.report" (fun () ->
        let topo = Metrics.topology_of_snapshot r.anon_snapshot in
        ignore (Metrics.config_utility ~orig:r.orig_configs ~anon:r.anon_configs);
        topo)
  in
  let fe = equivalence r in
  let wall = Clock.elapsed t0 in
  Json.Obj
    [
      ("wall_s", num wall);
      ("functional_equivalence", Json.Bool fe);
      ("min_degree_group", int topo.min_degree_group);
      ("layers", layers_json ());
      ("counters", counter_deltas before);
    ]

(* ---- serve: Batch.execute per job, then Serve.handle per job ---- *)

type job = { id : string; dir : string; kr : int; pii : bool }

let read_jobs file =
  let ic = open_in file in
  let rec loop acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ id; dir; kr; pii ] ->
            loop ({ id; dir; kr = int_of_string kr; pii = pii = "1" } :: acc)
        | _ -> loop acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let request ~out ~kh ~seed job =
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.Str "job");
          ("id", Json.Str job.id);
          ("source", Json.Obj [ ("dir", Json.Str job.dir) ]);
          ("kr", int job.kr);
          ("kh", int kh);
          ("seed", int seed);
          ("pii", Json.Bool job.pii);
          ("out", Json.Str out);
        ]
       @ if job.pii then [ ("tenant", Json.Str "bench") ] else []))

let replica_job ~cache ~out ~kh ~seed ~key job =
  let configs = span "configlang.parse" (fun () -> Batch.load_source (Batch.Dir job.dir)) in
  let params =
    {
      Workflow.default_params with
      k_r = job.kr;
      k_h = kh;
      seed;
      pii = job.pii;
      pii_key = (if job.pii then Some key else None);
    }
  in
  let r = pipeline ~params ?cache configs in
  let texts = print_cisco r in
  span "io.write" (fun () ->
      write_configs (Filename.concat (Filename.concat out job.id) "configs") texts);
  let digest =
    span "configlang.print" (fun () ->
        Digest.to_hex
          (Digest.string (String.concat "\x00" (List.map snd (Workflow.anon_texts r)))))
  in
  let verification = span "verify.report" (fun () -> Verify.of_report r) in
  let audit = span "redteam.audit" (fun () -> Audit.of_report r) in
  let fe = equivalence r in
  span "io.write" (fun () ->
      write_file
        (Filename.concat (Filename.concat out job.id) "result.json")
        (Verify.record_json verification ^ Audit.record_json audit));
  (digest, fe)

let record_digest response =
  let ( >>= ) = Option.bind in
  Json.parse response |> Result.to_option >>= Json.member "record"
  >>= Json.str
  >>= (fun r -> Result.to_option (Json.parse r))
  >>= Json.member "digest" >>= Json.str
  |> Option.value ~default:""

let serve ~jobs_file ~work ~kh ~seed ~key =
  (* as the daemon runs: --jobs 1 *)
  Netcore.Pool.set_default_jobs 1;
  Telemetry.set_enabled true;
  let key = get "key" (Pii.Pan.key_of_string key) in
  let jobs = read_jobs jobs_file in
  let cache dir = Some (Routing.Engine.open_cache (Filename.concat work dir)) in
  let replica_cache = cache "replica-cache" in
  let before = Telemetry.counters () in
  let t0 = Clock.now () in
  let replicas =
    List.map
      (fun job ->
        let t = Clock.now () in
        let digest, fe =
          replica_job ~cache:replica_cache ~out:(Filename.concat work "replica") ~kh
            ~seed ~key job
        in
        (digest, fe, Clock.elapsed t))
      jobs
  in
  let wall = Clock.elapsed t0 in
  let counters = counter_deltas before in
  let handle_cache = cache "handle-cache" in
  let server = ref None in
  let handled =
    List.map
      (fun job ->
        let line = request ~out:(Filename.concat work "handle") ~kh ~seed job in
        let t = Clock.now () in
        let resp = Serve.handle ~server ~cache:handle_cache ~tenants:[ ("bench", key) ] line in
        (record_digest resp, Clock.elapsed t))
      jobs
  in
  Json.Obj
    [
      ("wall_s", num wall);
      ("layers", layers_json ());
      ("counters", counters);
      ( "jobs",
        Json.Arr
          (List.map2
             (fun (job, (digest, fe, secs)) (handle_digest, handle_s) ->
               Json.Obj
                 [
                   ("id", Json.Str job.id);
                   ("digest", Json.Str digest);
                   ("functional_equivalence", Json.Bool fe);
                   ("replica_s", num secs);
                   ("handle_digest", Json.Str handle_digest);
                   ("handle_s", num handle_s);
                 ])
             (List.combine jobs replicas) handled) );
    ]

(* ---- emit ---- *)

(* Generating and printing the configurations is timed apart from
   writing them: the cost of creating many small files is the file
   system's, and on a shared host it swings several-fold. *)
let emit ~nets ~seed ~out =
  let rng = Netcore.Rng.create seed in
  let t0 = Clock.now () in
  let files =
    List.concat_map
      (fun net ->
        List.map
          (fun (c : Configlang.Ast.config) ->
            let fmt = if Netcore.Rng.bool rng ~p:0.5 then Vendor.Junos else Vendor.Cisco in
            (net, c.hostname ^ ".cfg", Vendor.print fmt c))
          (Netgen.Nets.configs (Netgen.Nets.find net)))
      nets
  in
  let generate = Clock.elapsed t0 in
  let t1 = Clock.now () in
  List.iter (fun net -> mkdir_p (Filename.concat out net)) nets;
  List.iter
    (fun (net, file, text) -> write_file (Filename.concat (Filename.concat out net) file) text)
    files;
  Json.Obj [ ("generate_s", num generate); ("write_s", num (Clock.elapsed t1)) ]

(* ---- command line: layers.exe CMD key=value... ---- *)

let () =
  let args = Array.to_list Sys.argv in
  let kv =
    List.filter_map
      (fun a ->
        match String.index_opt a '=' with
        | Some i -> Some (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
        | None -> None)
      args
  in
  let s k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None ->
        prerr_endline ("layers: missing " ^ k ^ "=...");
        exit 2
  in
  let i k = int_of_string (s k) in
  match args with
  | _ :: "emit" :: _ ->
      print_endline
        (Json.to_string
           (emit ~nets:(String.split_on_char ',' (s "nets")) ~seed:(i "seed") ~out:(s "out")))
  | _ :: "oneshot" :: _ ->
      print_endline
        (Json.to_string
           (oneshot ~in_dir:(s "in") ~out_dir:(s "out") ~k_r:(i "kr") ~k_h:(i "kh")
              ~seed:(i "seed") ~pool:(i "pool")))
  | _ :: "serve" :: _ ->
      print_endline
        (Json.to_string
           (serve ~jobs_file:(s "requests") ~work:(s "work") ~kh:(i "kh") ~seed:(i "seed")
              ~key:(s "key")))
  | _ ->
      prerr_endline "usage: layers.exe (emit|oneshot|serve) key=value...";
      exit 2
