type t = { cache_dir : string; eff_version : string }

let c_hit = Telemetry.counter "diskcache.hit"
let c_miss = Telemetry.counter "diskcache.miss"
let c_write = Telemetry.counter "diskcache.write"

let dir t = t.cache_dir
let version t = t.eff_version

(* Entry files are self-describing {!Codec} envelopes so a reader can
   reject anything it did not write itself: the version and key fields
   guard against collisions and stale formats, the digest against
   truncation and bit rot. The envelope is an explicit portable byte
   format — no [Marshal] — so entries survive compiler upgrades and can
   be shared across builds; callers whose *payloads* are Marshal-pinned
   (the routing engine) carry the compiler version in their own version
   string instead. *)

(* Bumped from "1": the v1 envelope was a Marshaled record. A directory
   written by v1 fails the index check below and is wiped wholesale. *)
let index_magic = "confmask-diskcache 2"
let entry_suffix = ".v"
let tmp_prefix = ".tmp-"

let entry_path t key =
  Filename.concat t.cache_dir (Digest.to_hex (Digest.string key) ^ entry_suffix)

let files_with dir keep =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files -> Array.to_list files |> List.filter keep

let entry_files dir = files_with dir (fun f -> Filename.check_suffix f entry_suffix)

let tmp_files dir =
  files_with dir (fun f ->
      String.length f >= String.length tmp_prefix
      && String.equal (String.sub f 0 (String.length tmp_prefix)) tmp_prefix)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()  (* creation race *)
  end

let index_path dir = Filename.concat dir "INDEX"

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* Unique-enough temp names: same-process writers are distinguished by
   the counter, concurrent processes by the pid. *)
let tmp_seq = Atomic.make 0

let write_atomic path content =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf "%s%d-%d" tmp_prefix (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let open_dir ?(version = "1") cache_dir =
  let t = { cache_dir; eff_version = version } in
  mkdir_p cache_dir;
  (* A writer that crashed between writing its temp file and renaming it
     leaks the temp file forever — nothing else ever touches that name.
     Sweep them here: any temp file is either stale (its writer is gone)
     or belongs to a concurrent in-flight [add], whose rename then fails
     and is swallowed — the cache contract makes a lost write harmless. *)
  List.iter
    (fun f -> try Sys.remove (Filename.concat cache_dir f) with Sys_error _ -> ())
    (tmp_files cache_dir);
  let want = index_magic ^ "\n" ^ version ^ "\n" in
  (match read_file (index_path cache_dir) with
  | Some got when String.equal got want -> ()
  | _ ->
      (* Missing, corrupted or version-mismatched index: the directory's
         contents cannot be trusted. Wipe the entries so they do not
         linger (and cannot be picked up by a later open under the old
         version), then stamp the expected version. *)
      List.iter
        (fun f -> try Sys.remove (Filename.concat cache_dir f) with Sys_error _ -> ())
        (entry_files cache_dir);
      write_atomic (index_path cache_dir) want);
  t

(* The one decode path: both [find] and [mem] trust an entry only if the
   whole envelope validates — digest, version and key alike. *)
let load t key =
  match read_file (entry_path t key) with
  | None -> None
  | Some raw -> Codec.decode ~version:t.eff_version ~key raw

let find t key =
  match load t key with
  | Some payload ->
      Telemetry.incr c_hit;
      Some payload
  | None ->
      Telemetry.incr c_miss;
      None

let add t ~key payload =
  match
    write_atomic (entry_path t key)
      (Codec.encode ~version:t.eff_version ~key payload)
  with
  | () -> Telemetry.incr c_write
  | exception Sys_error _ -> ()

let mem t key = load t key <> None
let entries t = List.length (entry_files t.cache_dir)
