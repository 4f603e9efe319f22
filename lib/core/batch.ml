open Netcore

exception Input_error of string

let input_error fmt = Printf.ksprintf (fun m -> raise (Input_error m)) fmt

let classify = function
  | Input_error m -> ("input", m)
  | Sys_error m -> ("input", m)
  (* Input, not a bug: [read_config_dir] rejects one interface prefix
     that covers the fresh-prefix pool, but several interfaces can still
     cover it together and leave nothing to allocate. *)
  | Prefix.Pool_exhausted _ as e -> ("input", Printexc.to_string e)
  | e -> ("internal", Printexc.to_string e)

let exit_code = function "input" -> 1 | _ -> 2

(* ---- filesystem plumbing ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> output_string oc content)

let read_config_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    input_error "%s: no such directory" dir;
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cfg")
    |> List.sort String.compare
  in
  if files = [] then input_error "no .cfg files in %s" dir;
  let declared = Hashtbl.create 16 in
  List.map
    (fun f ->
      let path = Filename.concat dir f in
      let c =
        match Configlang.Vendor.parse (read_file path) with
        | Ok c -> c
        | Error m -> input_error "%s: %s" path m
      in
      if c.hostname = Configlang.Ast.no_hostname then input_error "%s: no hostname" path;
      (match Hashtbl.find_opt declared c.hostname with
       | Some other ->
           input_error "%s: hostname '%s' is already declared by %s" path c.hostname other
       | None -> Hashtbl.add declared c.hostname path);
      let rec check_interfaces = function
        | [] -> ()
        | (i : Configlang.Ast.interface) :: rest ->
            if List.exists (fun (j : Configlang.Ast.interface) -> j.if_name = i.if_name) rest then
              input_error "%s: interface '%s' is declared twice" path i.if_name;
            (match Configlang.Ast.interface_prefix i with
             | Some p when Prefix.length p = 0 ->
                 input_error "%s: interface '%s' has mask 0.0.0.0" path i.if_name
             | Some p when Prefix.subset ~sub:Prefix.default_base ~super:p ->
                 input_error "%s: interface '%s' prefix %s covers the fake-prefix pool %s" path
                   i.if_name (Prefix.to_string p) (Prefix.to_string Prefix.default_base)
             | _ -> ());
            check_interfaces rest
      in
      check_interfaces c.interfaces;
      c)
    files

(* Prints every config, writes it to [dir/<hostname>.cfg] and returns
   the printed texts in config order. *)
let write_printed ~format dir configs =
  mkdir_p dir;
  List.map
    (fun (c : Configlang.Ast.config) ->
      let text = Configlang.Vendor.print format c in
      write_file (Filename.concat dir (c.hostname ^ ".cfg")) text;
      text)
    configs

let write_configs ~format dir configs = ignore (write_printed ~format dir configs)

let simulate_dir dir =
  let configs = read_config_dir dir in
  match Routing.Simulate.run configs with
  | Ok snap -> (configs, snap)
  | Error m -> input_error "%s: simulation failed: %s" dir m

(* A job's input is named, not a closure, so a job can be shipped over
   the serve wire and re-materialized by the daemon. Loading happens
   inside the job either way, so load failures stay isolated. *)
type source = Catalog of string | Dir of string

let load_source = function
  | Catalog net -> (
      match Netgen.Nets.find net with
      | entry -> Netgen.Nets.configs entry
      | exception Not_found -> input_error "unknown network '%s'" net)
  | Dir dir -> read_config_dir dir

type job = {
  job_id : string;
  job_source : source;
  job_params : Workflow.params;
}

(* One job per [x × k_r × k_h], in that nesting order; [seed] and [noise]
   default to [Workflow.default_params]'. *)
let jobs ~name ~source ?(seed = Workflow.default_params.seed)
    ?(noise = Workflow.default_params.noise) ~k_rs ~k_hs xs =
  List.concat_map
    (fun x ->
      List.concat_map
        (fun k_r ->
          List.map
            (fun k_h ->
              {
                job_id = Printf.sprintf "%s-kr%d-kh%d" (name x) k_r k_h;
                job_source = source x;
                job_params = { Workflow.default_params with k_r; k_h; seed; noise };
              })
            k_hs)
        k_rs)
    xs

let grid_jobs ?seed ?noise ~nets ~k_rs ~k_hs () =
  jobs ~name:Fun.id ~source:(fun net -> Catalog net) ?seed ?noise ~k_rs ~k_hs nets

let dir_jobs ?seed ?noise ~dirs ~k_rs ~k_hs () =
  jobs ~name:Filename.basename ~source:(fun dir -> Dir dir) ?seed ?noise ~k_rs ~k_hs dirs

(* ---- a job's wire form ---- *)

module Request = struct
  type t = {
    job : job;
    out : string;
    format : Configlang.Vendor.t;
    tenant : string option;
  }

  let source_json = function
    | Catalog net -> Json.Obj [ ("catalog", Json.Str net) ]
    | Dir dir -> Json.Obj [ ("dir", Json.Str dir) ]

  let source name = function
    | Json.Obj [ ("catalog", Json.Str net) ] -> Catalog net
    | Json.Obj [ ("dir", Json.Str dir) ] -> Dir dir
    | _ -> Wire.reject (Wire.Bad_value (name, {|must be {"catalog": ID} or {"dir": PATH}|}))

  let with_job r f = { r with job = f r.job }

  (* A field: its wire value ([None]: left off), and its decoder row. *)
  let field name enc read set = (enc, Wire.field name read set)

  let param name enc read set =
    field name
      (fun r -> enc r.job.job_params)
      read
      (fun r x -> with_job r (fun j -> { j with job_params = set j.job_params x }))

  let int_param name get = param name (fun p -> Some (Json.Num (float_of_int (get p)))) Wire.int

  (* The one table both directions read, in wire order. *)
  let fields =
    Workflow.
      [
        field "id" (fun r -> Some (Json.Str r.job.job_id)) Wire.str (fun r job_id ->
            with_job r (fun j -> { j with job_id }));
        field "source" (fun r -> Some (source_json r.job.job_source)) source
          (fun r job_source -> with_job r (fun j -> { j with job_source }));
        int_param "kr" (fun p -> p.k_r) (fun p k_r -> { p with k_r });
        int_param "kh" (fun p -> p.k_h) (fun p k_h -> { p with k_h });
        int_param "seed" (fun p -> p.seed) (fun p seed -> { p with seed });
        param "noise" (fun p -> Some (Json.Num p.noise)) Wire.num
          (fun p noise -> { p with noise });
        int_param "fake_routers" (fun p -> p.fake_routers) (fun p fake_routers ->
            { p with fake_routers });
        (* Sent only when it contradicts the key, so that a job a
           tenant's key scrubs carries no switch. *)
        param "pii"
          (fun p -> if p.pii = (p.pii_key <> None) then None else Some (Json.Bool p.pii))
          Wire.bool
          (fun p pii -> { p with pii });
        param "pii_key"
          (fun p -> Option.map (fun k -> Json.Str (Pii.Pan.key_to_string k)) p.pii_key)
          Wire.key
          (fun p k -> { p with pii_key = Some k });
        field "out" (fun r -> Some (Json.Str r.out)) Wire.str (fun r out -> { r with out });
        field "format" (fun r -> Some (Json.Str (Configlang.Vendor.to_string r.format)))
          (Wire.parsed Configlang.Vendor.of_string) (fun r format -> { r with format });
        field "tenant" (fun r -> Option.map (fun t -> Json.Str t) r.tenant) Wire.str
          (fun r t -> { r with tenant = Some t });
      ]

  let to_json r =
    let wire (enc, (name, _)) = Option.map (fun v -> (name, v)) (enc r) in
    Json.Obj (("op", Json.Str "job") :: List.filter_map wire fields)

  let of_json ~tenants v =
    Wire.decoding @@ fun () ->
    (* Absent fields keep [Workflow.default_params]'. *)
    let blank =
      let job_params = Workflow.default_params in
      { job = { job_id = ""; job_source = Catalog ""; job_params };
        out = ""; format = Configlang.Vendor.Cisco; tenant = None }
    in
    let r = Wire.decode ~required:[ "id"; "source"; "out" ] (List.map snd fields) blank v in
    let pii_key = Wire.resolve ~tenants ~tenant:r.tenant r.job.job_params.pii_key in
    (* Without a "pii" field the scrub runs exactly when a key resolved;
       a contradicting one is [Workflow.run]'s input error. *)
    let p = r.job.job_params in
    let pii = if Json.member "pii" v <> None then p.pii else pii_key <> None in
    { r with job = { r.job with job_params = { p with pii; pii_key } } }
end

let manifest_path out = Filename.concat out "manifest.json"
let result_path out id = Filename.concat (Filename.concat out id) "result.json"

(* ---- per-job execution ---- *)

(* Counter deltas around one job. The counters are process-global, so
   with concurrent jobs a delta also picks up overlapping work; it is
   exact under [--jobs 1] and directionally useful otherwise (the
   manifest's purpose — showing that a warm cache skips simulations —
   survives the attribution blur). *)
let counter_delta before after =
  let base = List.to_seq before |> Hashtbl.of_seq in
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt base name) in
      if d <> 0 then Some (name, d) else None)
    after

let num n = Json.Num (float_of_int n)

(* Records carry three decimals ([Json.round3]), so fractions print as
   0.667. Every field but [seconds] and [telemetry] is deterministic
   given the seeded workflow: a re-executed cell reproduces them. *)
let ok_record ~id ~seconds ~digest ~deltas (r : Workflow.report) =
  (* The verification record and the audit extract and memoize both full
     planes, so the equivalence check after them reads the anonymized
     plane from the memo instead of tracing its real-host pairs again. *)
  let verification = Verify.record (Verify.of_report r) in
  let redteam = Audit.record (Audit.of_report r) in
  let equivalent = Workflow.functional_equivalence r in
  Json.round3
    (Json.Obj
       [
         ("id", Json.Str id);
         ("status", Json.Str "ok");
         ("seconds", Json.Num seconds);
         ("fake_links", num (List.length r.fake_edges));
         ("fake_hosts", num (List.length r.fake_hosts));
         ("fake_routers", num (List.length r.fake_router_names));
         ("equiv_iterations", num r.equiv_iterations);
         ("filters_added", num (r.equiv_filters + r.anon_filters_added));
         ("filters_removed", num r.anon_filters_removed);
         ("functional_equivalence", Json.Bool equivalent);
         (* How much of the original network's mined specification
            transfers to this cell's anonymized output. *)
         ("verification", verification);
         (* The measured security budget of this cell: what each
            de-anonymization attack recovered. *)
         ("redteam", redteam);
         ("digest", Json.Str digest);
         ("telemetry", Json.Obj (List.map (fun (n, v) -> (n, num v)) deltas));
       ])

let error_record ~id ~seconds ~cls ~msg =
  Json.round3
    (Json.Obj
       [
         ("id", Json.Str id);
         ("status", Json.Str "error");
         ("class", Json.Str cls);
         ("error", Json.Str msg);
         ("seconds", Json.Num seconds);
       ])

let pending_record ~id =
  Json.Obj [ ("id", Json.Str id); ("status", Json.Str "pending") ]

let member_str name record = Option.bind (Json.member name record) Json.str

(* Through a temp file and a rename: a run killed mid-write leaves the
   previous record or none, never a torn one for --resume to trip on. *)
let write_record out id record =
  Diskcache.write_atomic (result_path out id) (Json.to_string record)

(* Only a record that parses and reports success is done; anything else
   (missing, torn, failed) is re-executed. *)
let reusable_record out id =
  match Json.parse (read_file (result_path out id)) with
  | Ok record when member_str "status" record = Some "ok" -> Some record
  | Ok _ | Error _ -> None
  | exception Sys_error _ -> None

let execute ~out ~cache ~format job =
  let dir = Filename.concat out job.job_id in
  mkdir_p dir;
  let before = Telemetry.counters () in
  let t0 = Clock.now () in
  let record =
    match
      let configs = load_source job.job_source in
      Workflow.run ~params:job.job_params ?cache configs
    with
    | Ok r ->
        let seconds = Clock.elapsed t0 in
        let deltas = counter_delta before (Telemetry.counters ()) in
        let written = write_printed ~format (Filename.concat dir "configs") r.anon_configs in
        (* The digest is over the Cisco texts ([Workflow.anon_texts]),
           which a Cisco job has just written. *)
        let texts =
          match format with
          | Configlang.Vendor.Cisco -> written
          | Configlang.Vendor.Junos -> List.map snd (Workflow.anon_texts r)
        in
        let digest = Digest.to_hex (Digest.string (String.concat "\x00" texts)) in
        ok_record ~id:job.job_id ~seconds ~digest ~deltas r
    | Error msg ->
        error_record ~id:job.job_id ~seconds:(Clock.elapsed t0) ~cls:"input" ~msg
    | exception e ->
        let cls, msg = classify e in
        error_record ~id:job.job_id ~seconds:(Clock.elapsed t0) ~cls ~msg
  in
  write_record out job.job_id record;
  record

(* ---- running a job through a live serve daemon ---- *)

(* Admission-control pushback: a queue-full rejection is the daemon
   telling us to slow down, so back off briefly and retry; anything
   else is final for this job. *)
let remote_attempts = 240
let remote_backoff_s = 0.25

let execute_remote ~server ?tenant ~out ~format job =
  let req = Json.to_string (Request.to_json { job; out; format; tenant }) in
  let rec attempt n =
    let resp =
      try Server.request server req
      with Unix.Unix_error (e, _, _) ->
        input_error "serve daemon at %s unreachable: %s"
          (Server.addr_to_string server) (Unix.error_message e)
      | End_of_file | Sys_error _ ->
        input_error "serve daemon at %s hung up mid-request"
          (Server.addr_to_string server)
    in
    match Json.parse resp with
    | Error m -> input_error "unparsable serve response: %s" m
    | Ok v -> (
        let err = member_str "error" v in
        match (Option.bind (Json.member "ok" v) Json.bool, err) with
        | Some true, _ -> (
            match Option.map Json.parse (member_str "record" v) with
            | Some (Ok record) -> record
            | Some (Error m) -> input_error "unparsable serve record: %s" m
            | None -> input_error "serve response carries no record")
        | _, Some "queue_full" when n < remote_attempts ->
            Unix.sleepf remote_backoff_s;
            attempt (n + 1)
        | _, Some e ->
            let detail = Option.fold ~none:"" ~some:(( ^ ) ": ") (member_str "detail" v) in
            input_error "serve daemon rejected job %s: %s%s" job.job_id e detail
        | _, None -> input_error "malformed serve response: %s" resp)
  in
  attempt 0

(* The daemon writes result.json and the configs itself (same [execute]
   code path, same bytes); the client still isolates failures into an
   error record so one dead job cannot kill the grid. *)
let process_remote ~server ?tenant ~out ~format job =
  let t0 = Clock.now () in
  match execute_remote ~server ?tenant ~out ~format job with
  | record -> record
  | exception e ->
      let cls, msg = classify e in
      let record =
        error_record ~id:job.job_id ~seconds:(Clock.elapsed t0) ~cls ~msg
      in
      mkdir_p (Filename.concat out job.job_id);
      write_record out job.job_id record;
      record

(* ---- the driver ---- *)

type outcome = {
  records : (string * Json.t) list;
  ok : int;
  errors : int;
  pending : int;
  reused : int;
  exit_code : int;
}

let record_exit_code record =
  match member_str "status" record with
  | Some ("ok" | "pending") -> 0
  | _ -> exit_code (Option.value ~default:"internal" (member_str "class" record))

let run ?pool ?cache ?server ?tenant ?(resume = false) ?limit
    ?(format = Configlang.Vendor.Cisco) ~out jobs =
  (* The per-job records embed counter deltas; without telemetry they
     would all read empty, which defeats the manifest's purpose. *)
  Telemetry.set_enabled true;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun { job_id = id; _ } ->
      if Hashtbl.mem seen id then input_error "duplicate job id '%s'" id;
      Hashtbl.add seen id ())
    jobs;
  mkdir_p out;
  (* The daemon re-materializes sources and writes results relative to
     its own cwd; absolute paths make the request location-independent. *)
  let absolutize p =
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let out = if server = None then out else absolutize out in
  let jobs =
    if server = None then jobs
    else
      List.map
        (fun j ->
          match j.job_source with
          | Dir d -> { j with job_source = Dir (absolutize d) }
          | Catalog _ -> j)
        jobs
  in
  let executed = Atomic.make 0 in
  let reused = Atomic.make 0 in
  let process job =
    match if resume then reusable_record out job.job_id else None with
    | Some record ->
        Atomic.incr reused;
        (job.job_id, record)
    | None -> (
        let slot = Atomic.fetch_and_add executed 1 in
        if match limit with Some l -> slot >= l | None -> false then
          (job.job_id, pending_record ~id:job.job_id)
        else
          match server with
          | Some server ->
              (job.job_id, process_remote ~server ?tenant ~out ~format job)
          | None -> (job.job_id, execute ~out ~cache ~format job))
  in
  let records = Pool.parallel_map ?pool process jobs in
  let count status =
    List.length
      (List.filter (fun (_, r) -> member_str "status" r = Some status) records)
  in
  let ok = count "ok" in
  let pending = count "pending" in
  let errors = List.length records - ok - pending in
  let exit_code =
    List.fold_left (fun acc (_, r) -> max acc (record_exit_code r)) 0 records
  in
  let manifest =
    Json.Obj
      [
        ("jobs", Json.Arr (List.map snd records));
        ("ok", num ok);
        ("errors", num errors);
        ("pending", num pending);
      ]
  in
  write_file (manifest_path out) (Json.to_string manifest ^ "\n");
  { records; ok; errors; pending; reused = Atomic.get reused; exit_code }
