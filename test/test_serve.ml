(* The serve daemon: dispatcher correctness, concurrent clients answered
   byte-compatibly with the in-process batch path, admission control
   under overload, and graceful drain. Plus the batch driver both modes
   share: limits, resume, exit codes and the records it writes. *)

open Netcore

let check = Alcotest.check

let temp_dir () =
  let f = Filename.temp_file "confmask-serve" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error m -> Alcotest.failf "unparsable response %S: %s" s m

let get_str resp name = Option.bind (Json.member name (parse_exn resp)) Json.str
let get_bool resp name = Option.bind (Json.member name (parse_exn resp)) Json.bool
let grid ks = Confmask.Batch.grid_jobs ~nets:[ "A" ] ~k_rs:ks ~k_hs:[ 2 ] ()
let str_of name record = Option.bind (Json.member name record) Json.str

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let expect_ok resp =
  check Alcotest.(option bool) "ok" (Some true) (get_bool resp "ok")

let expect_error resp kind =
  check Alcotest.(option bool) "not ok" (Some false) (get_bool resp "ok");
  check Alcotest.(option string) "typed error" (Some kind)
    (get_str resp "error")

let expect_detail resp sub =
  let detail = Option.value ~default:"" (get_str resp "detail") in
  check Alcotest.bool (Printf.sprintf "%S names %s" detail sub) true (contains ~sub detail)

(* ---- dispatcher, no transport ---- *)

let bare_handle = Confmask.Serve.handle ~server:(ref None) ~cache:None

(* Each [(field, request)] is a bad_request whose detail names the field. *)
let expect_named_rejections =
  List.iter (fun (field, req) ->
      let resp = bare_handle ~tenants:[] req in
      expect_error resp "bad_request";
      expect_detail resp (Printf.sprintf "'%s'" field))

let test_dispatch_ping () =
  let resp = bare_handle ~tenants:[] {|{"op": "ping"}|} in
  expect_ok resp;
  check Alcotest.(option string) "op echoed" (Some "ping") (get_str resp "op")

let test_dispatch_bad_requests () =
  List.iter
    (fun req -> expect_error (bare_handle ~tenants:[] req) "bad_request")
    [
      "not json at all";
      "{}";
      {|{"op": "no-such-op"}|};
      {|{"op": "job"}|};
      {|{"op": "job", "id": "x", "source": {"weird": 1}, "out": "o"}|};
      {|{"op": "job", "id": "x", "source": {"catalog": "A"}, "out": "o",
         "format": "wat"}|};
      (* A JSON number cannot carry a full 64-bit key; none is accepted. *)
      {|{"op": "job", "id": "x", "source": {"catalog": "A"}, "out": "o",
         "pii_key": 7}|};
    ];
  (* A mistyped, misspelled or out-of-range job field is rejected with a
     detail that names it, instead of running at the default. *)
  expect_named_rejections
    [
      ( "kr",
        {|{"op": "job", "id": "x", "source": {"catalog": "A"}, "out": "o", "kr": "2"}|} );
      ( "k_r",
        {|{"op": "job", "id": "x", "source": {"catalog": "A"}, "out": "o", "k_r": 2}|} );
      ( "seed",
        {|{"op": "job", "id": "x", "source": {"catalog": "A"}, "out": "o", "seed": 2e15}|} );
      ( "source",
        {|{"op": "job", "id": "x", "source": {"catalog": "A", "zone": 1}, "out": "o"}|} );
    ];
  (* Every op decodes through its own field table, before it touches a
     directory: a mistyped or misspelled field, or one an op without
     fields does not take, is rejected by name instead of dropped. *)
  let pair op = Printf.sprintf {|{"op": "%s", "orig_dir": "o", "anon_dir": "a"|} op in
  expect_named_rejections
    [
      ("entries", pair "verify" ^ {|, "entries": "true"}|});
      ("entires", pair "verify" ^ {|, "entires": true}|});
      ("key_range", pair "redteam" ^ {|, "key_range": "64"}|});
      ("attacks", pair "redteam" ^ {|, "attacks": "degree_reid"}|});
      ("pii_key", pair "redteam" ^ {|, "pii_key": "7"}|});
      ("seconds", {|{"op": "sleep", "seconds": "1"}|});
      ("x", {|{"op": "stats", "x": 1}|});
      ("x", {|{"op": "ping", "x": 1}|});
      ("x", {|{"op": "shutdown", "x": 1}|});
      ("op", {|{"op": 42}|});
    ]

let acme_key = Pii.Pan.key_of_int 7

let test_dispatch_unknown_tenant () =
  List.iter
    (fun req -> expect_error (bare_handle ~tenants:[ ("acme", acme_key) ] req) "unknown_tenant")
    [
      {|{"op": "job", "id": "x", "source": {"catalog": "A"},
         "out": "o", "tenant": "evil"}|};
      {|{"op": "redteam", "orig_dir": "o", "anon_dir": "a", "tenant": "evil"}|};
    ]

let job_record resp =
  expect_ok resp;
  match get_str resp "record" with
  | Some record -> parse_exn record
  | None -> Alcotest.failf "no record in %s" resp

let test_dispatch_tenant_job_scrubs () =
  (* Naming a tenant is enough: the job carries a key, so it is
     scrubbed, and no file takes an original device's name. *)
  let out = temp_dir () in
  let record =
    job_record
      (bare_handle ~tenants:[ ("acme", acme_key) ]
         (Printf.sprintf
            {|{"op": "job", "id": "t", "source": {"catalog": "A"}, "tenant": "acme", "out": "%s"}|}
            out))
  in
  check Alcotest.(option string) "status" (Some "ok") (str_of "status" record);
  let written = Sys.readdir (Filename.concat out "t/configs") in
  List.iter
    (fun (c : Configlang.Ast.config) ->
      if Array.mem (c.hostname ^ ".cfg") written then
        Alcotest.failf "original hostname %s written" c.hostname)
    (Netgen.Nets.configs (Netgen.Nets.find "A"))

let test_dispatch_pii_without_key () =
  (* A PII switch with no key source is the workflow's input error,
     answered as the job's error record. *)
  let record =
    job_record
      (bare_handle ~tenants:[]
         (Printf.sprintf
            {|{"op": "job", "id": "p", "source": {"catalog": "A"}, "pii": true, "out": "%s"}|}
            (temp_dir ())))
  in
  check Alcotest.(pair (option string) (option string)) "input-class error"
    (Some "error", Some "input")
    (str_of "status" record, str_of "class" record)

let test_dispatch_never_raises () =
  (* Whatever arrives on the wire, the dispatcher answers with a line. *)
  List.iter
    (fun req ->
      match bare_handle ~tenants:[] req with
      | resp -> expect_error resp "bad_request"
      | exception e ->
          Alcotest.failf "dispatcher raised %s on %S" (Printexc.to_string e)
            req)
    [ ""; "\x00\xff\xfe"; "{\"op\": 42}"; "[]"; "null"; String.make 10000 '{' ]

(* ---- the job codec ---- *)

(* A request whose integers are in the wire's range, whose noise is
   finite and whose tenant, if any, maps to its full 64-bit key. *)
let request_gen =
  let open QCheck2.Gen in
  let wire_int = int_range (-1_000_000_000_000_000) 1_000_000_000_000_000 in
  let key =
    let+ i = int64 in
    Result.get_ok (Pii.Pan.key_of_string (Printf.sprintf "%016Lx" i))
  in
  let+ job_id = string
  and+ source = oneof [ map (fun n -> Confmask.Batch.Catalog n) string;
                        map (fun d -> Confmask.Batch.Dir d) string ]
  and+ k_r, k_h, seed, fake_routers = quad wire_int wire_int wire_int wire_int
  and+ noise = map (fun f -> if Float.is_finite f then f else 0.1) float
  and+ pii = bool
  and+ pii_key = opt key
  and+ tenant = opt string
  and+ out = string
  and+ format = oneofl [ Configlang.Vendor.Cisco; Configlang.Vendor.Junos ] in
  let tenant = if pii_key = None then None else tenant in
  ( (match (tenant, pii_key) with Some t, Some k -> [ (t, k) ] | _ -> []),
    {
      Confmask.Batch.Request.job =
        {
          job_id;
          job_source = source;
          job_params = { k_r; k_h; seed; noise; pii; pii_key; fake_routers };
        };
      out;
      format;
      tenant;
    } )

let codec_roundtrip =
  QCheck2.Test.make ~name:"job codec: of_json (to_json r) = Ok r" ~count:2000
    request_gen (fun (tenants, r) ->
      let wire = Json.to_string (Confmask.Batch.Request.to_json r) in
      match Json.parse wire with
      | Ok v -> Confmask.Batch.Request.of_json ~tenants v = Ok r
      | Error _ -> false)

(* ---- the verify op ---- *)

let write_net_dir net =
  let dir = temp_dir () in
  List.iter
    (fun (c : Configlang.Ast.config) ->
      let oc = open_out (Filename.concat dir (c.hostname ^ ".cfg")) in
      output_string oc (Configlang.Printer.to_string c);
      close_out oc)
    (Netgen.Nets.configs (Netgen.Nets.find net));
  dir

(* Exactly the fields the benchmark's serve client sends with every job
   (a dir source, "pii" and a tenant) are accepted and run. *)
let test_dispatch_benchmark_fields () =
  let dir = write_net_dir "A" in
  let record =
    job_record
      (bare_handle ~tenants:[ ("bench", acme_key) ]
         (Printf.sprintf
            {|{"op": "job", "id": "j0000", "source": {"dir": "%s"}, "kr": 2, "kh": 2, "seed": 42, "pii": true, "out": "%s", "tenant": "bench"}|}
            dir (temp_dir ())))
  in
  check Alcotest.(option string) "status" (Some "ok") (str_of "status" record)

let test_dispatch_verify_bad_requests () =
  List.iter
    (fun req -> expect_error (bare_handle ~tenants:[] req) "bad_request")
    [
      {|{"op": "verify"}|};
      {|{"op": "verify", "orig_dir": "/nonexistent-dir"}|};
      {|{"op": "verify", "orig_dir": "/nonexistent-dir", "anon_dir": "/also-missing"}|};
    ];
  (* Unparsable inline policies are the client's problem, not a crash. *)
  let dir = write_net_dir "A" in
  expect_error
    (bare_handle ~tenants:[]
       (Printf.sprintf
          {|{"op": "verify", "orig_dir": "%s", "anon_dir": "%s", "policies": "frob(a, b)"}|}
          dir dir))
    "bad_request"

let test_dispatch_verify_self () =
  (* Verifying a directory against itself: the mined specification
     holds on both sides by construction, nothing is lost. *)
  let dir = write_net_dir "A" in
  let resp =
    bare_handle ~tenants:[]
      (Printf.sprintf
         {|{"op": "verify", "orig_dir": "%s", "anon_dir": "%s"}|} dir dir)
  in
  expect_ok resp;
  let j = parse_exn resp in
  let num name = Option.bind (Json.member name j) Json.int in
  check Alcotest.(option string) "op echoed" (Some "verify") (get_str resp "op");
  check Alcotest.bool "mined a nonempty specification" true
    (num "policies" > Some 0);
  check Alcotest.(option int) "nothing lost" (Some 0) (num "lost");
  check Alcotest.bool "everything holds on both sides" true
    (num "holds_both" = num "policies");
  check Alcotest.bool "entries omitted by default" true
    (Json.member "entries" j = None);
  (* With entries requested, one per policy, all holds_both. *)
  let resp =
    bare_handle ~tenants:[]
      (Printf.sprintf
         {|{"op": "verify", "orig_dir": "%s", "anon_dir": "%s", "entries": true}|}
         dir dir)
  in
  expect_ok resp;
  match Json.member "entries" (parse_exn resp) with
  | Some (Json.Arr es) ->
      check Alcotest.(option int) "one entry per policy" (Some (List.length es))
        (Option.bind (Json.member "policies" (parse_exn resp)) Json.int);
      List.iter
        (fun e ->
          check Alcotest.(option string) "verdict" (Some "holds_both")
            (Option.bind (Json.member "verdict" e) Json.str))
        es
  | _ -> Alcotest.fail "entries array missing"

(* An attack name outside the suite is an input error in the one redteam
   front end, so both the serve op and the CLI reject it. *)
let test_unknown_attack () =
  let dir = write_net_dir "A" in
  let resp =
    bare_handle ~tenants:[]
      (Printf.sprintf
         {|{"op": "redteam", "orig_dir": "%s", "anon_dir": "%s", "attacks": ["degre_reid"]}|}
         dir dir)
  in
  expect_error resp "bad_request";
  expect_detail resp "'degre_reid'";
  List.iter (expect_detail resp) Redteam.Suite.names;
  match
    Confmask.Recipient.redteam
      { orig_dir = dir; anon_dir = dir; attacks = Some [ "degree_reid"; "degre_reid" ];
        key_range = None; pii_key = None; tenant = None }
  with
  | _ -> Alcotest.fail "the CLI front end ran an unknown attack"
  | exception e ->
      let cls, msg = Confmask.Batch.classify e in
      check Alcotest.int "CLI exit code" 1 (Confmask.Batch.exit_code cls);
      check Alcotest.bool (Printf.sprintf "%S names the attack" msg) true
        (contains ~sub:"'degre_reid'" msg)

(* The served redteam op answers what the CLI's front end computes, with
   a tenant's key planted as the CLI's --key plants it. *)
let test_dispatch_redteam () =
  let dir = write_net_dir "A" in
  let resp =
    bare_handle ~tenants:[ ("acme", acme_key) ]
      (Printf.sprintf
         {|{"op": "redteam", "orig_dir": "%s", "anon_dir": "%s", "attacks": ["no_traffic", "key_bruteforce"], "key_range": 16, "tenant": "acme"}|}
         dir dir)
  in
  expect_ok resp;
  let scores =
    Confmask.Recipient.redteam
      { orig_dir = dir; anon_dir = dir; attacks = Some [ "no_traffic"; "key_bruteforce" ];
        key_range = Some 16; pii_key = Some acme_key; tenant = None }
  in
  check Alcotest.(option string) "same scores"
    (Some (Json.to_string (Confmask.Audit.to_json scores)))
    (Option.map
       (fun a -> Json.to_string (Json.Obj [ ("attacks", a) ]))
       (Json.member "attacks" (parse_exn resp)))

(* ---- a live server ---- *)

(* A loopback TCP port that was free a moment ago. *)
let free_tcp_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> assert false

let with_server ?(tcp = false) ?(queue_cap = 8) ?(workers = 2) ?(tenants = [])
    f =
  let addr =
    if tcp then Server.Tcp ("127.0.0.1", free_tcp_port ())
    else Server.Unix_sock (Filename.concat (temp_dir ()) "s.sock")
  in
  let t =
    Confmask.Serve.create
      { Confmask.Serve.addr; queue_cap; workers; cache = None; tenants }
  in
  let runner = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_shutdown t;
      Thread.join runner)
    (fun () -> f addr t)

let test_live_ping_and_stats () =
  with_server @@ fun addr _ ->
  expect_ok (Server.request addr {|{"op": "ping"}|});
  let resp = Server.request addr {|{"op": "stats"}|} in
  expect_ok resp;
  let j = parse_exn resp in
  let gauge name = Option.bind (Json.member name j) Json.int in
  check Alcotest.bool "accepted counted" true (gauge "accepted" >= Some 2);
  check Alcotest.(option int) "queue_cap reported" (Some 8) (gauge "queue_cap");
  check Alcotest.bool "counters present" true
    (Json.member "counters" j <> None && Json.member "spans" j <> None)

let job_request ~id ~out =
  Printf.sprintf
    {|{"op": "job", "id": "%s", "source": {"catalog": "A"}, "kr": 6, "kh": 2, "seed": 42, "out": "%s"}|}
    id out

let digest_of_record record =
  match Option.bind (Json.member "digest" (parse_exn record)) Json.str with
  | Some d -> d
  | None -> Alcotest.failf "record without digest: %s" record

(* A record without its timing and telemetry, which vary run to run, and
   without its id. *)
let deterministic_part record =
  match record with
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) -> not (List.mem k [ "id"; "seconds"; "telemetry" ]))
              fields))
  | _ -> Alcotest.failf "record is not an object: %s" (Json.to_string record)

let test_live_concurrent_jobs_byte_compatible () =
  (* N concurrent clients run the same grid cell; every served record
     must equal the one the in-process batch path computes, but for its
     id, timing and telemetry — the served and one-shot modes are the
     same Batch.execute. *)
  let reference =
    let out = temp_dir () in
    Confmask.Batch.execute ~out ~cache:None ~format:Configlang.Vendor.Cisco
      {
        Confmask.Batch.job_id = "ref";
        job_source = Confmask.Batch.Catalog "A";
        job_params = { Confmask.Workflow.default_params with k_r = 6; k_h = 2 };
      }
  in
  let want = deterministic_part reference in
  check Alcotest.(option string) "reference ok" (Some "ok") (str_of "status" reference);
  with_server @@ fun addr _ ->
  let n = 4 in
  let out = temp_dir () in
  let responses = Array.make n "" in
  let clients =
    List.init n (fun i ->
        Thread.create
          (fun i ->
            let id = Printf.sprintf "c%d" i in
            responses.(i) <- Server.request addr (job_request ~id ~out))
          i)
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun i resp ->
      expect_ok resp;
      match get_str resp "record" with
      | None -> Alcotest.failf "client %d: no record in %s" i resp
      | Some record ->
          check Alcotest.string "served record = one-shot record" want
            (deterministic_part (parse_exn record));
          check Alcotest.(option string) "served id"
            (Some (Printf.sprintf "c%d" i))
            (str_of "id" (parse_exn record));
          (* The daemon wrote the same result line to disk. *)
          let ic =
            open_in (Filename.concat out (Printf.sprintf "c%d/result.json" i))
          in
          let on_disk = input_line ic in
          close_in ic;
          check Alcotest.string "record on disk" record on_disk)
    responses

let test_live_queue_full () =
  (* workers=1 and queue_cap=1: one request executing, one queued, the
     next is rejected immediately with the typed admission-control
     error instead of waiting. *)
  with_server ~workers:1 ~queue_cap:1 @@ fun addr _ ->
  let slow = {|{"op": "sleep", "seconds": 1.0}|} in
  let t1 = Thread.create (fun () -> expect_ok (Server.request addr slow)) () in
  Thread.delay 0.3;
  let t2 = Thread.create (fun () -> ignore (Server.request addr slow)) () in
  Thread.delay 0.3;
  let t0 = Clock.now () in
  let resp = Server.request addr {|{"op": "ping"}|} in
  let dt = Clock.elapsed t0 in
  expect_error resp "queue_full";
  check Alcotest.bool "rejected immediately, not queued" true (dt < 0.5);
  Thread.join t1;
  Thread.join t2;
  (* Load gone: admitted again. *)
  expect_ok (Server.request addr {|{"op": "ping"}|});
  let stats = Server.request addr {|{"op": "stats"}|} in
  check Alcotest.bool "rejection counted" true
    (Option.bind (Json.member "rejected_full" (parse_exn stats)) Json.int
     >= Some 1)

let test_live_oversized_line ~tcp () =
  (* A 2 MiB request line with no newline: the daemon reads no further
     than its cap, answers once with a typed error and hangs up, and a
     new connection is still served. Over TCP the rejection must survive
     the hang-up, which a close with unread input turns into a reset. *)
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_sigpipe)
  @@ fun () ->
  with_server ~tcp @@ fun addr _ ->
  let ic, oc = Server.connect addr in
  let fd = Unix.descr_of_out_channel oc in
  let line = Bytes.make (2 * 1024 * 1024) 'x' in
  (* The server answers mid-line, so the response is read concurrently
     with the write. The write fails if the server hangs up without
     draining the line, and the hang-up then reads as a reset rather
     than an end of stream. Ending the stream after the line keeps a
     server that waits for a newline from hanging the test: it then
     answers the whole line as a request. *)
  let wrote = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        try
          ignore (Unix.write fd line 0 (Bytes.length line));
          Atomic.set wrote true;
          Unix.shutdown fd Unix.SHUTDOWN_SEND
        with Unix.Unix_error _ -> ())
      ()
  in
  let resp = input_line ic in
  Thread.join writer;
  let after =
    match input_line ic with
    | l -> "a second line " ^ l
    | exception End_of_file -> "end of stream"
    | exception Sys_error e -> e
  in
  close_out_noerr oc;
  expect_error resp "request_too_long";
  check Alcotest.bool "the rest of the line was drained" true
    (Atomic.get wrote);
  check Alcotest.string "connection closed after the rejection"
    "end of stream" after;
  expect_ok (Server.request addr {|{"op": "ping"}|})

let test_live_pipelined () =
  (* Three requests in one write, the last with a CRLF ending and the
     stream then ended without a final newline after a fourth: each is
     answered, in order, and the connection then ends cleanly. *)
  with_server @@ fun addr _ ->
  let ic, oc = Server.connect addr in
  output_string oc
    "{\"op\": \"ping\"}\n{\"op\": \"nope\"}\n{\"op\": \"ping\"}\r\n{\"op\": \"ping\"}";
  flush oc;
  Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_SEND;
  let resps = List.init 4 (fun _ -> input_line ic) in
  let ended =
    match input_line ic with _ -> false | exception End_of_file -> true
  in
  close_out_noerr oc;
  (match resps with
  | [ a; b; c; d ] ->
      expect_ok a;
      expect_error b "bad_request";
      expect_ok c;
      expect_ok d
  | _ -> assert false);
  check Alcotest.bool "end of stream after the last response" true ended

let test_live_tenant_keys () =
  (* The same job under two tenants scrubs PII under different keys, so
     the digests differ; an explicit pii_key equal to a tenant's key
     reproduces that tenant's digest. *)
  let tenants = [ ("acme", acme_key); ("globex", Pii.Pan.key_of_int 1234) ] in
  with_server ~tenants @@ fun addr _ ->
  let req extra id =
    Printf.sprintf
      {|{"op": "job", "id": "%s", "source": {"catalog": "A"}, "pii": true, "out": "%s"%s}|}
      id (temp_dir ()) extra
  in
  let digest extra id =
    let resp = Server.request addr (req extra id) in
    expect_ok resp;
    digest_of_record (Option.get (get_str resp "record"))
  in
  let acme = digest {|, "tenant": "acme"|} "t1" in
  let globex = digest {|, "tenant": "globex"|} "t2" in
  let by_key =
    digest
      (Printf.sprintf {|, "pii_key": "%s"|} (Pii.Pan.key_to_string acme_key))
      "t3"
  in
  check Alcotest.bool "tenant keys separate the outputs" true (acme <> globex);
  check Alcotest.string "tenant = explicit key" acme by_key

let test_live_batch_tenant () =
  (* The batch client naming a tenant scrubs under that tenant's key:
     the same digest as the in-process job carrying the key itself. *)
  let job = List.hd (grid [ 6 ]) in
  let reference =
    Confmask.Batch.execute ~out:(temp_dir ()) ~cache:None
      ~format:Configlang.Vendor.Cisco
      {
        job with
        job_params =
          { job.job_params with pii = true; pii_key = Some acme_key };
      }
  in
  with_server ~tenants:[ ("acme", acme_key) ] @@ fun addr _ ->
  let o =
    Confmask.Batch.run ~server:addr ~tenant:"acme" ~out:(temp_dir ()) [ job ]
  in
  check Alcotest.int "ok" 1 o.ok;
  check Alcotest.(option string) "served digest = keyed in-process digest"
    (str_of "digest" reference)
    (str_of "digest" (List.assoc job.job_id o.records))

let test_live_shutdown_drains () =
  let dir = temp_dir () in
  let sock = Filename.concat dir "s.sock" in
  let addr = Server.Unix_sock sock in
  let t =
    Confmask.Serve.create
      {
        Confmask.Serve.addr;
        queue_cap = 8;
        workers = 2;
        cache = None;
        tenants = [];
      }
  in
  let runner = Thread.create Server.run t in
  (* An in-flight slow request, then a shutdown request: the slow
     response must still be delivered before run() returns. *)
  let slow_resp = ref "" in
  let slow =
    Thread.create
      (fun () ->
        slow_resp := Server.request addr {|{"op": "sleep", "seconds": 0.8}|})
      ()
  in
  Thread.delay 0.2;
  let resp = Server.request addr {|{"op": "shutdown"}|} in
  expect_ok resp;
  check Alcotest.(option bool) "draining acknowledged" (Some true)
    (get_bool resp "draining");
  Thread.join slow;
  Thread.join runner;
  expect_ok !slow_resp;
  check Alcotest.bool "socket path unlinked" false (Sys.file_exists sock)

(* ---- the batch driver ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let result_path out id = Filename.concat (Filename.concat out id) "result.json"

(* The manifest on disk parses, and its counts match the outcome's. *)
let check_manifest out (o : Confmask.Batch.outcome) =
  let m = parse_exn (read_file (Confmask.Batch.manifest_path out)) in
  let count name = Option.bind (Json.member name m) Json.int in
  check Alcotest.(list (option int)) "manifest ok/errors/pending"
    [ Some o.ok; Some o.errors; Some o.pending ]
    (List.map count [ "ok"; "errors"; "pending" ])

let test_batch_limit_then_resume () =
  let out = temp_dir () in
  let o = Confmask.Batch.run ~limit:1 ~out (grid [ 2; 6 ]) in
  check Alcotest.(triple int int int) "ok, pending, exit code" (1, 1, 0)
    (o.ok, o.pending, o.exit_code);
  check_manifest out o;
  let find status = List.find (fun (_, r) -> str_of "status" r = Some status) o.records in
  let done_id, done_record = find "ok" and pending_id, _ = find "pending" in
  check Alcotest.bool "a pending job writes no result.json" false
    (Sys.file_exists (result_path out pending_id));
  let bytes = read_file (result_path out done_id) in
  check Alcotest.string "result.json holds the record" bytes
    (Json.to_string done_record);
  let o' = Confmask.Batch.run ~resume:true ~out (grid [ 2; 6 ]) in
  check Alcotest.(triple int int int) "resumed: ok, pending, reused" (2, 0, 1)
    (o'.ok, o'.pending, o'.reused);
  check Alcotest.string "reused record byte for byte" bytes
    (Json.to_string (List.assoc done_id o'.records));
  check Alcotest.string "reused result.json untouched" bytes
    (read_file (result_path out done_id));
  check_manifest out o'

(* Only a record that parses and reports ok is reused: a failed record
   and a torn one (a write cut short) are both re-executed. *)
let test_batch_resume_reexecutes content =
  let out = temp_dir () in
  Sys.mkdir (Filename.concat out "A-kr2-kh2") 0o700;
  Out_channel.with_open_bin (result_path out "A-kr2-kh2") (fun oc ->
      output_string oc content);
  let o = Confmask.Batch.run ~resume:true ~out (grid [ 2 ]) in
  check Alcotest.(pair int int) "re-executed, not reused" (1, 0) (o.ok, o.reused);
  check Alcotest.(option string) "result.json rewritten" (Some "ok")
    (str_of "status" (parse_exn (read_file (result_path out "A-kr2-kh2"))));
  check_manifest out o

let test_batch_resume_error_record () =
  test_batch_resume_reexecutes
    {|{"id":"A-kr2-kh2","status":"error","class":"input","error":"x","seconds":0}|}

let test_batch_resume_torn_record () =
  let out = temp_dir () in
  check Alcotest.int "first run ok" 1 (Confmask.Batch.run ~out (grid [ 2 ])).ok;
  test_batch_resume_reexecutes
    (String.sub (read_file (result_path out "A-kr2-kh2")) 0 60)

let test_batch_exit_code_and_escaping () =
  let out = temp_dir () in
  let weird = Filename.concat out "no\"such\\dir\n\there\x01" in
  let bad =
    {
      Confmask.Batch.job_id = "bad";
      job_source = Confmask.Batch.Dir weird;
      job_params = Confmask.Workflow.default_params;
    }
  in
  let o = Confmask.Batch.run ~out (grid [ 2 ] @ [ bad ]) in
  check Alcotest.(triple int int int) "ok, errors, exit code of the worst class"
    (1, 1, 1) (o.ok, o.errors, o.exit_code);
  check_manifest out o;
  let on_disk = parse_exn (read_file (result_path out "bad")) in
  check Alcotest.(pair (option string) (option string))
    "class and message survive the round trip"
    (Some "input", Some (weird ^ ": no such directory"))
    (str_of "class" on_disk, str_of "error" on_disk)

let () =
  Alcotest.run "serve"
    [
      ( "dispatch",
        [
          Alcotest.test_case "ping" `Quick test_dispatch_ping;
          Alcotest.test_case "bad requests are typed errors" `Quick
            test_dispatch_bad_requests;
          Alcotest.test_case "unknown tenant" `Quick test_dispatch_unknown_tenant;
          Alcotest.test_case "tenant alone scrubs" `Quick
            test_dispatch_tenant_job_scrubs;
          Alcotest.test_case "pii without a key" `Quick
            test_dispatch_pii_without_key;
          Alcotest.test_case "the benchmark's job fields" `Quick
            test_dispatch_benchmark_fields;
          Alcotest.test_case "never raises" `Quick test_dispatch_never_raises;
          Alcotest.test_case "verify: bad requests" `Quick
            test_dispatch_verify_bad_requests;
          Alcotest.test_case "unknown attack names" `Quick test_unknown_attack;
          Alcotest.test_case "redteam: served = front end" `Quick test_dispatch_redteam;
          Alcotest.test_case "verify: self-comparison" `Quick
            test_dispatch_verify_self;
        ] );
      ("codec", List.map QCheck_alcotest.to_alcotest [ codec_roundtrip ]);
      ( "live",
        [
          Alcotest.test_case "ping and stats" `Quick test_live_ping_and_stats;
          Alcotest.test_case "concurrent jobs byte-compatible" `Quick
            test_live_concurrent_jobs_byte_compatible;
          Alcotest.test_case "queue-full rejection" `Quick test_live_queue_full;
          Alcotest.test_case "oversized request line" `Quick
            (test_live_oversized_line ~tcp:false);
          Alcotest.test_case "oversized request line over tcp" `Quick
            (test_live_oversized_line ~tcp:true);
          Alcotest.test_case "pipelined requests in one write" `Quick
            test_live_pipelined;
          Alcotest.test_case "per-tenant pii keys" `Quick test_live_tenant_keys;
          Alcotest.test_case "batch client tenant scrubs" `Quick
            test_live_batch_tenant;
          Alcotest.test_case "shutdown drains in-flight" `Quick
            test_live_shutdown_drains;
        ] );
      ( "batch",
        [
          Alcotest.test_case "limit leaves jobs pending; resume reuses" `Quick
            test_batch_limit_then_resume;
          Alcotest.test_case "resume re-executes an error record" `Quick
            test_batch_resume_error_record;
          Alcotest.test_case "resume re-executes a torn record" `Quick
            test_batch_resume_torn_record;
          Alcotest.test_case "exit code and escaped error messages" `Quick
            test_batch_exit_code_and_escaping;
        ] );
    ]
