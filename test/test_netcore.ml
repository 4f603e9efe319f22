open Netcore

let check = Alcotest.check
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* -------------------- Ipv4 -------------------- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> check Alcotest.string "roundtrip" s (Ipv4.to_string (ip s)))
    [ "0.0.0.0"; "10.0.1.2"; "255.255.255.255"; "192.168.1.254" ]

let test_ipv4_octets () =
  let a = Ipv4.of_octets 10 20 30 40 in
  check
    Alcotest.(pair (pair int int) (pair int int))
    "octets" ((10, 20), (30, 40))
    (let a, b, c, d = Ipv4.to_octets a in
     ((a, b), (c, d)));
  check Alcotest.int "int value" ((10 lsl 24) lor (20 lsl 16) lor (30 lsl 8) lor 40)
    (Ipv4.to_int a)

let test_ipv4_bad () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [ ""; "10.0.0"; "10.0.0.0.0"; "256.0.0.1"; "-1.0.0.0"; "a.b.c.d"; "10..0.1" ]

let test_ipv4_decimal_only () =
  (* int_of_string would happily take all of these; octets must be plain
     decimal digits. *)
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [
      "0x10.1.2.3"; "0o7.0.0.1"; "0b1.0.0.1"; "1_0.0.0.1"; "+1.0.0.0";
      "1.2.3.+4"; " 1.2.3.4"; "1.2.3.4 "; "1. 2.3.4"; "0001.2.3.4";
    ];
  (* Leading zeros are still decimal digits and keep parsing. *)
  check Alcotest.string "leading zeros ok" "10.0.0.1" (Ipv4.to_string (ip "010.0.0.01"))

let test_ipv4_add_wraps () =
  check Alcotest.string "wrap" "0.0.0.1" (Ipv4.to_string (Ipv4.add (ip "255.255.255.255") 2))

(* -------------------- Prefix -------------------- *)

let test_prefix_canonical () =
  let p = Prefix.v (ip "10.1.2.3") 24 in
  check Alcotest.string "canonical" "10.1.2.0/24" (Prefix.to_string p);
  check Alcotest.bool "equal to canonical" true
    (Prefix.equal p (pfx "10.1.2.0/24"))

let test_prefix_mem () =
  let p = pfx "10.1.2.0/24" in
  check Alcotest.bool "member" true (Prefix.mem (ip "10.1.2.255") p);
  check Alcotest.bool "not member" false (Prefix.mem (ip "10.1.3.0") p);
  check Alcotest.bool "everything in /0" true (Prefix.mem (ip "200.1.1.1") (pfx "0.0.0.0/0"))

let test_prefix_subset () =
  check Alcotest.bool "subset" true
    (Prefix.subset ~sub:(pfx "10.1.2.0/25") ~super:(pfx "10.1.2.0/24"));
  check Alcotest.bool "not subset" false
    (Prefix.subset ~sub:(pfx "10.1.2.0/24") ~super:(pfx "10.1.2.0/25"));
  check Alcotest.bool "self subset" true
    (Prefix.subset ~sub:(pfx "10.1.2.0/24") ~super:(pfx "10.1.2.0/24"))

let test_prefix_masks () =
  check Alcotest.string "netmask" "255.255.255.0" (Ipv4.to_string (Prefix.netmask (pfx "10.0.0.0/24")));
  check Alcotest.string "wildcard" "0.0.0.255" (Ipv4.to_string (Prefix.wildcard (pfx "10.0.0.0/24")));
  check Alcotest.string "netmask /31" "255.255.255.254" (Ipv4.to_string (Prefix.netmask (pfx "10.0.0.0/31")));
  check Alcotest.int "size" 256 (Prefix.size (pfx "10.0.0.0/24"))

let test_prefix_32 () =
  let p = pfx "10.1.2.3" in
  check Alcotest.int "len" 32 (Prefix.length p);
  check Alcotest.bool "mem self" true (Prefix.mem (ip "10.1.2.3") p)

let test_alloc_avoids () =
  let avoid = [ pfx "100.64.0.0/24"; pfx "100.64.2.0/23" ] in
  let a = Prefix.alloc_create ~avoid () in
  let p1 = Prefix.alloc_fresh a ~len:24 in
  check Alcotest.string "first free /24" "100.64.1.0/24" (Prefix.to_string p1);
  let p2 = Prefix.alloc_fresh a ~len:24 in
  check Alcotest.string "skips avoided /23" "100.64.4.0/24" (Prefix.to_string p2);
  let p3 = Prefix.alloc_fresh a ~len:30 in
  check Alcotest.bool "no overlap with used" false
    (List.exists (Prefix.overlaps p3) [ p1; p2 ]);
  check Alcotest.int "used count" 3 (List.length (Prefix.alloc_used a))

let test_alloc_exhaustion () =
  let base = pfx "10.0.0.0/30" in
  let a = Prefix.alloc_create ~base ~avoid:[] () in
  let _ = Prefix.alloc_fresh a ~len:31 in
  let _ = Prefix.alloc_fresh a ~len:31 in
  match Prefix.alloc_fresh a ~len:31 with
  | p -> Alcotest.failf "expected exhaustion, got %s" (Prefix.to_string p)
  | exception Prefix.Pool_exhausted e ->
      check Alcotest.string "pool" "10.0.0.0/30" (Prefix.to_string e.pool);
      check Alcotest.int "requested length" 31 e.requested_len;
      check Alcotest.int "cursor at pool end" (Prefix.size base) e.cursor;
      (* The diagnostic must render without an installed handler. *)
      check Alcotest.bool "printable" true
        (let s = Printexc.to_string (Prefix.Pool_exhausted e) in
         String.length s > 0 && s.[0] = 'P')

let test_alloc_exhaustion_probe_bound () =
  (* An [avoid] range covering the whole pool: the cursor jumps over it
     in one step, so exhaustion is detected in O(1) probes — not by
     stepping through all 16k /30 slots of the /16. *)
  let base = pfx "10.0.0.0/16" in
  let a = Prefix.alloc_create ~base ~avoid:[ pfx "10.0.0.0/16" ] () in
  match Prefix.alloc_fresh a ~len:30 with
  | p -> Alcotest.failf "expected exhaustion, got %s" (Prefix.to_string p)
  | exception Prefix.Pool_exhausted e ->
      check Alcotest.int "one probe" 1 e.probes;
      check Alcotest.bool "requested too large is a different error" true
        (match Prefix.alloc_fresh a ~len:8 with
        | _ -> false
        | exception Invalid_argument _ -> true)

let test_alloc_probe_bound () =
  (* A large avoided range in front of the pool: the cursor must jump past
     it instead of stepping /30 by /30 (16k probes for this /18). Each
     allocation costs at most one probe per clashing range plus the
     successful one. *)
  let avoid = [ pfx "100.64.0.0/18"; pfx "100.64.64.0/20" ] in
  let a = Prefix.alloc_create ~avoid () in
  let p1 = Prefix.alloc_fresh a ~len:30 in
  check Alcotest.string "first free /30" "100.64.80.0/30" (Prefix.to_string p1);
  check Alcotest.bool "constant probes, not a linear scan" true
    (Prefix.alloc_probes a <= 3);
  (* Later allocations must not re-scan the avoided ranges. *)
  for _ = 1 to 100 do
    ignore (Prefix.alloc_fresh a ~len:30)
  done;
  check Alcotest.bool "amortized one probe per allocation" true
    (Prefix.alloc_probes a <= 103);
  (* A mixed-size sequence still avoids everything. *)
  let p_big = Prefix.alloc_fresh a ~len:24 in
  check Alcotest.bool "fresh /24 avoids all" false
    (List.exists (Prefix.overlaps p_big) (avoid @ List.tl (Prefix.alloc_used a)))

(* -------------------- Diskcache -------------------- *)

let temp_dir () =
  let f = Filename.temp_file "confmask-diskcache" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".v")
  |> List.map (Filename.concat dir)

let test_diskcache_roundtrip () =
  let dir = temp_dir () in
  let c = Diskcache.open_dir ~version:"t1" dir in
  check Alcotest.(option string) "miss on empty" None (Diskcache.find c "k1");
  Diskcache.add c ~key:"k1" "payload-one";
  Diskcache.add c ~key:"k2" (String.make 4096 '\x00');
  check Alcotest.(option string) "hit" (Some "payload-one")
    (Diskcache.find c "k1");
  check Alcotest.(option string) "binary payload survives"
    (Some (String.make 4096 '\x00'))
    (Diskcache.find c "k2");
  check Alcotest.int "entries" 2 (Diskcache.entries c);
  (* A second handle on the same directory sees the same entries: the
     cross-process reuse the cache exists for. *)
  let c2 = Diskcache.open_dir ~version:"t1" dir in
  check Alcotest.(option string) "hit after reopen" (Some "payload-one")
    (Diskcache.find c2 "k1")

let test_diskcache_counters () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let hit = Telemetry.counter "diskcache.hit"
  and miss = Telemetry.counter "diskcache.miss"
  and write = Telemetry.counter "diskcache.write" in
  let h0 = Telemetry.value hit
  and m0 = Telemetry.value miss
  and w0 = Telemetry.value write in
  let c = Diskcache.open_dir ~version:"t1" (temp_dir ()) in
  ignore (Diskcache.find c "absent");
  Diskcache.add c ~key:"k" "v";
  ignore (Diskcache.find c "k");
  check Alcotest.int "one hit" (h0 + 1) (Telemetry.value hit);
  check Alcotest.int "one miss" (m0 + 1) (Telemetry.value miss);
  check Alcotest.int "one write" (w0 + 1) (Telemetry.value write)

let test_diskcache_corrupted_entry () =
  let dir = temp_dir () in
  let c = Diskcache.open_dir ~version:"t1" dir in
  Diskcache.add c ~key:"k1" "payload";
  List.iter
    (fun path ->
      let oc = open_out_bin path in
      output_string oc "not a marshaled entry";
      close_out oc)
    (entry_files dir);
  check Alcotest.(option string) "corrupted entry is a miss" None
    (Diskcache.find c "k1");
  (* Still writable and readable after the corruption was detected. *)
  Diskcache.add c ~key:"k1" "payload";
  check Alcotest.(option string) "overwritten" (Some "payload")
    (Diskcache.find c "k1")

let test_diskcache_version_mismatch () =
  let dir = temp_dir () in
  let c = Diskcache.open_dir ~version:"t1" dir in
  Diskcache.add c ~key:"k1" "payload";
  (* A version bump invalidates the directory wholesale. *)
  let c2 = Diskcache.open_dir ~version:"t2" dir in
  check Alcotest.(option string) "old entries gone" None
    (Diskcache.find c2 "k1");
  check Alcotest.int "wiped on disk" 0 (List.length (entry_files dir));
  Diskcache.add c2 ~key:"k1" "fresh";
  check Alcotest.(option string) "new version usable" (Some "fresh")
    (Diskcache.find c2 "k1")

let test_diskcache_corrupted_index () =
  let dir = temp_dir () in
  let c = Diskcache.open_dir ~version:"t1" dir in
  Diskcache.add c ~key:"k1" "payload";
  let oc = open_out_bin (Filename.concat dir "INDEX") in
  output_string oc "garbage\x00index";
  close_out oc;
  (* An unrecognizable index means the directory cannot be trusted:
     reopen treats it as empty rather than serving stale entries. *)
  let c2 = Diskcache.open_dir ~version:"t1" dir in
  check Alcotest.(option string) "not trusted" None (Diskcache.find c2 "k1");
  check Alcotest.int "entries dropped" 0 (Diskcache.entries c2)

let test_diskcache_mem_validates () =
  let dir = temp_dir () in
  let c = Diskcache.open_dir ~version:"t1" dir in
  Diskcache.add c ~key:"k1" "payload";
  check Alcotest.bool "mem sees valid entry" true (Diskcache.mem c "k1");
  check Alcotest.bool "mem misses absent key" false (Diskcache.mem c "nope");
  (* The regression: mem used to be a bare Sys.file_exists, so a
     corrupted entry counted as present while find returned None. Both
     must go through the same envelope validation. *)
  List.iter
    (fun path ->
      let oc = open_out_bin path in
      output_string oc "corrupted bytes";
      close_out oc)
    (entry_files dir);
  check Alcotest.bool "mem rejects corrupted entry" false
    (Diskcache.mem c "k1");
  check Alcotest.(option string) "find agrees" None (Diskcache.find c "k1")

let test_diskcache_tmp_sweep () =
  let dir = temp_dir () in
  let c = Diskcache.open_dir ~version:"t1" dir in
  Diskcache.add c ~key:"k1" "payload";
  (* A crash between temp-file write and rename leaves .tmp-* orphans;
     open_dir must sweep them. *)
  List.iter
    (fun name ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc "half-written";
      close_out oc)
    [ ".tmp-123-abc.v"; ".tmp-999-xyz.v" ];
  let c2 = Diskcache.open_dir ~version:"t1" dir in
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= 5 && String.sub f 0 5 = ".tmp-")
  in
  check Alcotest.(list string) "orphaned temp files swept" [] leftovers;
  check Alcotest.(option string) "real entries survive the sweep"
    (Some "payload") (Diskcache.find c2 "k1")

let test_diskcache_pre_codec_upgrade () =
  (* A directory written by the pre-codec (Marshal-envelope) format has
     a different INDEX magic; opening it must wipe wholesale rather than
     attempt to read Marshal bytes. *)
  let dir = temp_dir () in
  let oc = open_out_bin (Filename.concat dir "INDEX") in
  output_string oc "confmask-diskcache 1\nt1/ocaml-5.1.1\n";
  close_out oc;
  let oc = open_out_bin (Filename.concat dir "0123456789abcdef.v") in
  output_string oc (Marshal.to_string ("k1", "old payload") []);
  close_out oc;
  let c = Diskcache.open_dir ~version:"t1" dir in
  check Alcotest.int "old-format dir wiped" 0 (Diskcache.entries c);
  check Alcotest.int "old entry files removed" 0
    (List.length (entry_files dir));
  check Alcotest.(option string) "no stale payload" None
    (Diskcache.find c "k1")

(* -------------------- Codec -------------------- *)

let test_codec_roundtrip () =
  List.iter
    (fun payload ->
      let raw = Codec.encode ~version:"v1" ~key:"some key" payload in
      check Alcotest.(option string) "roundtrip" (Some payload)
        (Codec.decode ~version:"v1" ~key:"some key" raw);
      check
        Alcotest.(option (triple string string string))
        "decode_any"
        (Some ("v1", "some key", payload))
        (Codec.decode_any raw))
    [ ""; "x"; "payload with \x00 binary \xff bytes"; String.make 100_000 'z' ]

let test_codec_mismatches () =
  let raw = Codec.encode ~version:"v1" ~key:"k" "payload" in
  check Alcotest.(option string) "wrong version" None
    (Codec.decode ~version:"v2" ~key:"k" raw);
  check Alcotest.(option string) "wrong key" None
    (Codec.decode ~version:"v1" ~key:"other" raw);
  check Alcotest.(option string) "trailing garbage" None
    (Codec.decode ~version:"v1" ~key:"k" (raw ^ "x"));
  check Alcotest.(option string) "wrong magic" None
    (Codec.decode ~version:"v1" ~key:"k" ("XMCODEC1" ^ String.sub raw 8 (String.length raw - 8)));
  check Alcotest.(option string) "empty input" None
    (Codec.decode ~version:"v1" ~key:"k" "");
  check Alcotest.(option string) "marshal bytes" None
    (Codec.decode ~version:"v1" ~key:"k" (Marshal.to_string ("k", "payload") []))

let test_codec_truncation_exhaustive () =
  (* Every proper prefix of a valid envelope must decode to None without
     raising — truncation at any byte is a detected miss. *)
  let raw = Codec.encode ~version:"v1" ~key:"key" "some payload bytes" in
  for len = 0 to String.length raw - 1 do
    match Codec.decode ~version:"v1" ~key:"key" (String.sub raw 0 len) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation at %d decoded" len
  done

let test_codec_bitflip_exhaustive () =
  (* Every single-bit corruption anywhere in the envelope — header,
     lengths, version, key, payload, digest — must be a miss. *)
  let raw = Codec.encode ~version:"v1" ~key:"key" "some payload bytes" in
  for i = 0 to String.length raw - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string raw in
      Bytes.set b i (Char.chr (Char.code raw.[i] lxor (1 lsl bit)));
      match Codec.decode ~version:"v1" ~key:"key" (Bytes.to_string b) with
      | None -> ()
      | Some _ -> Alcotest.failf "bit flip at byte %d bit %d decoded" i bit
    done
  done

(* -------------------- Json -------------------- *)

let test_json_parse_basics () =
  let p s = Result.get_ok (Json.parse s) in
  check Alcotest.bool "null" true (p "null" = Json.Null);
  check Alcotest.bool "true" true (p "true" = Json.Bool true);
  check Alcotest.(option int) "int" (Some 42) (Json.int (p " 42 "));
  check Alcotest.(option (float 1e-9)) "float" (Some (-3.5))
    (Json.num (p "-3.5"));
  check Alcotest.(option string) "string escapes" (Some "a\"b\\c\n\t/ \x01")
    (Json.str (p {|"a\"b\\c\n\t\/ "|}));
  check Alcotest.bool "array" true
    (p "[1, [], [2]]" = Json.Arr [ Json.Num 1.0; Json.Arr []; Json.Arr [ Json.Num 2.0 ] ]);
  check Alcotest.(option int) "nested member" (Some 7)
    (Option.bind
       (Option.bind (Json.member "a" (p {|{"a": {"b": 7}}|})) (Json.member "b"))
       Json.int)

let test_json_parse_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [
      ""; "nul"; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "{'a': 1}";
      "[1] trailing"; "\"bad \\x escape\""; "+1"; "01"; "--2"; "{1: 2}";
    ]

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("op", Json.Str "job");
        ("n", Json.Num 3.0);
        ("f", Json.Num 0.25);
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("xs", Json.Arr [ Json.Str "a\"\n\\b"; Json.Num (-1.0) ]);
        ("nested", Json.Obj [ ("k", Json.Str "v") ]);
      ]
  in
  check Alcotest.bool "print-parse roundtrip" true
    (Result.get_ok (Json.parse (Json.to_string v)) = v);
  check Alcotest.string "integers print without a fraction"
    {|{"n":3,"f":0.25}|}
    (Json.to_string (Json.Obj [ ("n", Json.Num 3.0); ("f", Json.Num 0.25) ]));
  check Alcotest.string "shortest round-tripping form"
    "[0.1,0.6666666666666666,-2.5e-07,1e+300]"
    (Json.to_string
       (Json.Arr (List.map (fun f -> Json.Num f) [ 0.1; 2. /. 3.; -2.5e-7; 1e300 ])));
  check Alcotest.string "round3 rounds every number, integers unchanged"
    {|{"a":[0.667,2],"b":"x","c":0.001}|}
    (Json.to_string
       (Json.round3
          (Json.Obj
             [
               ("a", Json.Arr [ Json.Num (2. /. 3.); Json.Num 2.0 ]);
               ("b", Json.Str "x");
               ("c", Json.Num 0.0005001);
             ])))

(* The --metrics-out document: a span path or counter name with quotes,
   backslashes or control characters still yields valid JSON of the
   {"spans": [{path, count, seconds}], "counters": {name: int}} shape. *)
let test_telemetry_report_json () =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let name = "t\"e\\s\tt\x01" in
  Telemetry.with_span name (fun () -> Telemetry.with_span "inner" ignore);
  Telemetry.add (Telemetry.counter name) 3;
  let report = Result.get_ok (Json.parse (Telemetry.report_json ())) in
  let ( >>= ) = Option.bind in
  let span =
    match Json.member "spans" report with
    | Some (Json.Arr spans) ->
        List.find_opt
          (fun s -> (Json.member "path" s >>= Json.str) = Some (name ^ "/inner"))
          spans
    | _ -> None
  in
  check Alcotest.(option int) "span count" (Some 1)
    (span >>= Json.member "count" >>= Json.int);
  check Alcotest.bool "span seconds" true
    (span >>= Json.member "seconds" >>= Json.num <> None);
  check Alcotest.(option int) "counter value" (Some 3)
    (Json.member "counters" report >>= Json.member name >>= Json.int)

(* -------------------- Clock -------------------- *)

let test_clock_monotonic () =
  let t0 = Clock.now () in
  let a = ref 0 in
  for i = 1 to 10_000 do
    a := !a + i
  done;
  let dt = Clock.elapsed t0 in
  check Alcotest.bool "elapsed never negative" true (dt >= 0.0);
  check Alcotest.bool "elapsed bounded (not wall-clock garbage)" true
    (dt < 60.0);
  let x = Clock.now () and y = Clock.now () in
  check Alcotest.bool "now is non-decreasing" true (y >= x)

(* -------------------- Rng -------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs r = List.init 20 (fun _ -> Rng.int r 1000) in
  check Alcotest.(list int) "same seed, same stream" (xs a) (xs b)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 13 in
    if x < 0 || x >= 13 then Alcotest.failf "out of bounds %d" x;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds %f" f
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let xs = List.init 50 Fun.id in
  let ys = Rng.shuffle r xs in
  check Alcotest.(list int) "permutation" xs (List.sort Int.compare ys)

let test_rng_chi_square () =
  (* Sanity check on [Rng.int]'s uniformity after the rejection-sampling
     change. Deterministic under the fixed seed: df = 12, and the 99.99th
     percentile of chi^2(12) is ~39.1, so 45 is a generous bound that only
     a genuinely skewed generator would exceed. *)
  List.iter
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let n = 2000 * bound in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let x = Rng.int r bound in
        counts.(x) <- counts.(x) + 1
      done;
      let expected = float_of_int n /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc o ->
            let d = float_of_int o -. expected in
            acc +. (d *. d /. expected))
          0.0 counts
      in
      if chi2 > 45.0 then
        Alcotest.failf "chi-square too high for seed %d bound %d: %.2f" seed bound chi2)
    [ (42, 13); (7, 13); (2024, 13) ]

(* -------------------- Graph -------------------- *)

let test_graph_basic () =
  let g = Graph.of_edges [ ("a", "b"); ("b", "c"); ("a", "b") ] in
  check Alcotest.int "nodes" 3 (Graph.num_nodes g);
  check Alcotest.int "edges (dedup)" 2 (Graph.num_edges g);
  check Alcotest.bool "edge both ways" true
    (Graph.mem_edge "a" "b" g && Graph.mem_edge "b" "a" g);
  check Alcotest.int "degree" 2 (Graph.degree "b" g)

let test_graph_no_self_loop () =
  let g = Graph.add_edge "a" "a" Graph.empty in
  check Alcotest.int "self loop ignored" 0 (Graph.num_edges g);
  check Alcotest.bool "node added" true (Graph.mem_node "a" g)

let test_graph_remove () =
  let g = Graph.of_edges [ ("a", "b"); ("b", "c") ] in
  let g = Graph.remove_edge "a" "b" g in
  check Alcotest.bool "removed" false (Graph.mem_edge "a" "b" g);
  check Alcotest.int "one left" 1 (Graph.num_edges g)

let test_graph_edges_sorted () =
  let g = Graph.of_edges [ ("c", "a"); ("b", "a") ] in
  check
    Alcotest.(list (pair string string))
    "edges canonical" [ ("a", "b"); ("a", "c") ] (Graph.edges g)

(* -------------------- Gmetrics -------------------- *)

let triangle_plus_tail = Graph.of_edges [ ("a", "b"); ("b", "c"); ("a", "c"); ("c", "d") ]

let test_degree_histogram () =
  check
    Alcotest.(list (pair int int))
    "histogram" [ (1, 1); (2, 2); (3, 1) ]
    (Gmetrics.degree_histogram triangle_plus_tail)

let test_min_degree_group () =
  check Alcotest.int "min group" 1 (Gmetrics.min_degree_group triangle_plus_tail);
  let square = Graph.of_edges [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "a") ] in
  check Alcotest.int "regular graph" 4 (Gmetrics.min_degree_group square);
  check Alcotest.bool "k-anonymous" true (Gmetrics.is_k_degree_anonymous 4 square);
  check Alcotest.bool "not 5-anonymous" false (Gmetrics.is_k_degree_anonymous 5 square)

let test_clustering () =
  let triangle = Graph.of_edges [ ("a", "b"); ("b", "c"); ("a", "c") ] in
  check (Alcotest.float 1e-9) "triangle CC" 1.0 (Gmetrics.clustering_coefficient triangle);
  let path = Graph.of_edges [ ("a", "b"); ("b", "c") ] in
  check (Alcotest.float 1e-9) "path CC" 0.0 (Gmetrics.clustering_coefficient path);
  (* a and b participate in a triangle, c has CC 1, d has degree 1 *)
  let cc = Gmetrics.clustering_coefficient triangle_plus_tail in
  check (Alcotest.float 1e-9) "mixed CC" ((1.0 +. 1.0 +. (1.0 /. 3.0) +. 0.0) /. 4.0) cc

let test_bfs () =
  let d = Gmetrics.bfs_distances triangle_plus_tail "a" in
  check Alcotest.(option int) "dist d" (Some 2) (Graph.Smap.find_opt "d" d);
  check Alcotest.(option int) "dist a" (Some 0) (Graph.Smap.find_opt "a" d)

let test_components () =
  let g = Graph.of_edges [ ("a", "b"); ("c", "d") ] in
  check Alcotest.int "two components" 2 (List.length (Gmetrics.components g));
  check Alcotest.bool "not connected" false (Gmetrics.connected g);
  check Alcotest.bool "connected" true (Gmetrics.connected triangle_plus_tail)

let test_dijkstra () =
  let g = Graph.of_edges [ ("a", "b"); ("b", "c"); ("a", "c") ] in
  let weight u v =
    match (u, v) with
    | "a", "c" | "c", "a" -> 10
    | _ -> 1
  in
  let d = Gmetrics.dijkstra g ~weight "a" in
  check Alcotest.(option int) "via b" (Some 2) (Graph.Smap.find_opt "c" d)

(* Hand-computed fixtures for the metrics the crucible oracles lean on. *)

let star =
  (* hub h with 4 leaves *)
  Graph.of_edges [ ("h", "l1"); ("h", "l2"); ("h", "l3"); ("h", "l4") ]

let two_cliques =
  (* K3 on a,b,c and K4 on w,x,y,z — disjoint *)
  Graph.of_edges
    [
      ("a", "b"); ("b", "c"); ("a", "c");
      ("w", "x"); ("w", "y"); ("w", "z"); ("x", "y"); ("x", "z"); ("y", "z");
    ]

let test_gmetrics_star () =
  (* Leaves have degree 1 (local CC 0 by convention); the hub's neighbors
     share no edges, so every local coefficient is 0. *)
  check (Alcotest.float 1e-9) "star CC" 0.0 (Gmetrics.clustering_coefficient star);
  check (Alcotest.float 1e-9) "hub local CC" 0.0 (Gmetrics.local_clustering star "h");
  check Alcotest.bool "connected" true (Gmetrics.connected star);
  check Alcotest.int "one component" 1 (List.length (Gmetrics.components star));
  check
    Alcotest.(list (pair int int))
    "histogram" [ (1, 4); (4, 1) ]
    (Gmetrics.degree_histogram star);
  check Alcotest.int "min degree group" 1 (Gmetrics.min_degree_group star)

let test_gmetrics_two_cliques () =
  (* Every node's neighborhood is complete, so each local coefficient is
     exactly 1 even though the graph is disconnected. *)
  check (Alcotest.float 1e-9) "cliques CC" 1.0 (Gmetrics.clustering_coefficient two_cliques);
  check Alcotest.bool "not connected" false (Gmetrics.connected two_cliques);
  check
    Alcotest.(list (list string))
    "components sorted" [ [ "a"; "b"; "c" ]; [ "w"; "x"; "y"; "z" ] ]
    (Gmetrics.components two_cliques);
  check Alcotest.bool "2-degree-anonymous" true
    (Gmetrics.is_k_degree_anonymous 2 two_cliques);
  check Alcotest.bool "not 4-anonymous" false
    (Gmetrics.is_k_degree_anonymous 4 two_cliques)

let test_gmetrics_triangle_fixture () =
  let triangle = Graph.of_edges [ ("a", "b"); ("b", "c"); ("a", "c") ] in
  check (Alcotest.float 1e-9) "triangle CC" 1.0 (Gmetrics.clustering_coefficient triangle);
  check Alcotest.bool "connected" true (Gmetrics.connected triangle);
  check
    Alcotest.(list (list string))
    "single component" [ [ "a"; "b"; "c" ] ]
    (Gmetrics.components triangle);
  check Alcotest.int "min degree group is all" 3 (Gmetrics.min_degree_group triangle)

let test_pearson () =
  let xs = [ (1.0, 2.0); (2.0, 4.0); (3.0, 6.0) ] in
  check (Alcotest.float 1e-9) "perfect" 1.0 (Gmetrics.pearson xs);
  let ys = [ (1.0, 3.0); (2.0, 2.0); (3.0, 1.0) ] in
  check (Alcotest.float 1e-9) "anti" (-1.0) (Gmetrics.pearson ys);
  check Alcotest.bool "constant is nan" true
    (Float.is_nan (Gmetrics.pearson [ (1.0, 1.0); (2.0, 1.0) ]))

(* -------------------- interner & heap -------------------- *)

let test_interner_basic () =
  let it = Interner.create ~capacity:1 () in
  check Alcotest.int "first id" 0 (Interner.intern it "a");
  check Alcotest.int "second id" 1 (Interner.intern it "b");
  check Alcotest.int "repeat keeps id" 0 (Interner.intern it "a");
  check Alcotest.int "length" 2 (Interner.length it);
  check Alcotest.(option int) "find" (Some 1) (Interner.find it "b");
  check Alcotest.(option int) "find missing" None (Interner.find it "c");
  check Alcotest.string "name" "b" (Interner.name it 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Interner.name: id 2 out of range") (fun () ->
      ignore (Interner.name it 2))

let test_heap_basic () =
  let h = Heap.create ~capacity:1 () in
  check Alcotest.bool "starts empty" true (Heap.is_empty h);
  List.iter
    (fun (p, v) -> Heap.push h ~prio:p v)
    [ (5, 50); (1, 10); (3, 30); (1, 11) ];
  check Alcotest.int "size" 4 (Heap.size h);
  (match (Heap.pop h, Heap.pop h) with
  | Some (1, _), Some (1, _) -> ()
  | _ -> Alcotest.fail "minimum-priority entries must pop first");
  check Alcotest.(option (pair int int)) "third" (Some (3, 30)) (Heap.pop h);
  check Alcotest.(option (pair int int)) "fourth" (Some (5, 50)) (Heap.pop h);
  check Alcotest.(option (pair int int)) "drained" None (Heap.pop h);
  Heap.push h ~prio:2 20;
  Heap.clear h;
  check Alcotest.bool "clear empties" true (Heap.is_empty h)

(* -------------------- qcheck properties -------------------- *)

let prefix_gen =
  QCheck2.Gen.(
    map2
      (fun addr len -> Prefix.v (Ipv4.of_int addr) len)
      (int_bound 0xFFFFFFF) (int_bound 32))

let prop_prefix_roundtrip =
  QCheck2.Test.make ~name:"prefix string roundtrip" ~count:500 prefix_gen (fun p ->
      Prefix.equal p (Prefix.of_string_exn (Prefix.to_string p)))

let prop_prefix_mem_network =
  QCheck2.Test.make ~name:"network address is member" ~count:500 prefix_gen
    (fun p -> Prefix.mem (Prefix.network p) p)

let prop_shuffle_preserves =
  QCheck2.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck2.Gen.(pair int (small_list int))
    (fun (seed, xs) ->
      let r = Rng.create seed in
      List.sort Int.compare (Rng.shuffle r xs) = List.sort Int.compare xs)

let prop_graph_degree_sum =
  QCheck2.Test.make ~name:"sum of degrees = 2|E|" ~count:200
    QCheck2.Gen.(small_list (pair (int_bound 20) (int_bound 20)))
    (fun pairs ->
      let edges = List.map (fun (a, b) -> (string_of_int a, string_of_int b)) pairs in
      let g = Graph.of_edges edges in
      let sum = Graph.fold_nodes (fun v acc -> acc + Graph.degree v g) g 0 in
      sum = 2 * Graph.num_edges g)

let prop_clustering_range =
  QCheck2.Test.make ~name:"clustering coefficient in [0,1]" ~count:200
    QCheck2.Gen.(small_list (pair (int_bound 12) (int_bound 12)))
    (fun pairs ->
      let edges = List.map (fun (a, b) -> (string_of_int a, string_of_int b)) pairs in
      let cc = Gmetrics.clustering_coefficient (Graph.of_edges edges) in
      cc >= 0.0 && cc <= 1.0)

let prop_interner_bijection =
  (* Ids are dense, assigned by first occurrence, and invert exactly:
     the same insertion sequence always yields the same table. *)
  QCheck2.Test.make ~name:"interner bijection and insertion-order ids"
    ~count:300
    QCheck2.Gen.(small_list (string_size (int_bound 6)))
    (fun names ->
      let it = Interner.create () in
      let ids = List.map (Interner.intern it) names in
      let firsts =
        List.fold_left
          (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
          [] names
      in
      Interner.length it = List.length firsts
      && List.for_all2
           (fun n id ->
             Interner.name it id = n && Interner.find it n = Some id)
           names ids
      && List.for_all2
           (fun n id -> Interner.find_exn it n = id)
           firsts
           (List.init (List.length firsts) Fun.id))

let prop_heap_pqueue_agree =
  (* The mutable heap drains in the same priority order as the
     persistent pairing-heap facade and preserves the pushed multiset. *)
  QCheck2.Test.make ~name:"heap pops sorted, agreeing with Pqueue" ~count:300
    QCheck2.Gen.(small_list (pair (int_bound 1000) (int_bound 1000)))
    (fun entries ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~prio:p v) entries;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some pv -> drain (pv :: acc)
      in
      let popped = drain [] in
      let prios = List.map fst popped in
      List.sort compare popped = List.sort compare entries
      && prios = List.sort compare prios
      &&
      let pq =
        List.fold_left
          (fun pq (p, v) -> Pqueue.insert p v pq)
          Pqueue.empty entries
      in
      let rec pdrain acc pq =
        match Pqueue.pop pq with
        | None -> List.rev acc
        | Some (p, _, pq) -> pdrain (p :: acc) pq
      in
      pdrain [] pq = prios)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrip over arbitrary bytes" ~count:300
    QCheck2.Gen.(triple (string_size (int_bound 16)) (string_size (int_bound 32))
                   (string_size (int_bound 2000)))
    (fun (version, key, payload) ->
      Codec.decode ~version ~key (Codec.encode ~version ~key payload)
      = Some payload)

let prop_codec_garbage_never_raises =
  (* Decode is total: arbitrary bytes — including ones that start with
     the magic — are a miss, never an exception. *)
  QCheck2.Test.make ~name:"codec decode of garbage is None, never raises"
    ~count:500
    QCheck2.Gen.(pair bool (string_size (int_bound 200)))
    (fun (prefix_magic, junk) ->
      let raw = if prefix_magic then Codec.magic ^ junk else junk in
      match Codec.decode ~version:"v1" ~key:"k" raw with
      | None -> true
      | Some _ ->
          (* Only a byte-exact re-encoding could legitimately decode. *)
          raw = Codec.encode ~version:"v1" ~key:"k" (Option.get (Codec.decode ~version:"v1" ~key:"k" raw)))

let prop_json_roundtrip =
  let rec gen_value depth =
    QCheck2.Gen.(
      if depth = 0 then
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun n -> Json.Num (float_of_int n)) (int_bound 1_000_000);
            map (fun s -> Json.Str s) (string_size (int_bound 12));
          ]
      else
        oneof
          [
            map (fun s -> Json.Str s) (string_size (int_bound 12));
            map (fun xs -> Json.Arr xs)
              (list_size (int_bound 4) (gen_value (depth - 1)));
            map
              (fun kvs ->
                (* Duplicate keys would round-trip ambiguously. *)
                let seen = Hashtbl.create 8 in
                Json.Obj
                  (List.filter
                     (fun (k, _) ->
                       if Hashtbl.mem seen k then false
                       else (Hashtbl.add seen k (); true))
                     kvs))
              (list_size (int_bound 4)
                 (pair (string_size (int_bound 6)) (gen_value (depth - 1))));
          ])
  in
  QCheck2.Test.make ~name:"json print-parse roundtrip" ~count:300
    (gen_value 3)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_prefix_roundtrip; prop_prefix_mem_network; prop_shuffle_preserves;
      prop_graph_degree_sum; prop_clustering_range;
      prop_interner_bijection; prop_heap_pqueue_agree;
      prop_codec_roundtrip; prop_codec_garbage_never_raises;
      prop_json_roundtrip ]

let () =
  Alcotest.run "netcore"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "malformed" `Quick test_ipv4_bad;
          Alcotest.test_case "decimal octets only" `Quick test_ipv4_decimal_only;
          Alcotest.test_case "add wraps" `Quick test_ipv4_add_wraps;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "canonicalization" `Quick test_prefix_canonical;
          Alcotest.test_case "membership" `Quick test_prefix_mem;
          Alcotest.test_case "subset" `Quick test_prefix_subset;
          Alcotest.test_case "masks" `Quick test_prefix_masks;
          Alcotest.test_case "host /32" `Quick test_prefix_32;
          Alcotest.test_case "allocator avoids collisions" `Quick test_alloc_avoids;
          Alcotest.test_case "allocator exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "allocator exhaustion probe bound" `Quick
            test_alloc_exhaustion_probe_bound;
          Alcotest.test_case "allocator probe bound" `Quick test_alloc_probe_bound;
        ] );
      ( "diskcache",
        [
          Alcotest.test_case "roundtrip and reopen" `Quick test_diskcache_roundtrip;
          Alcotest.test_case "telemetry counters" `Quick test_diskcache_counters;
          Alcotest.test_case "corrupted entry is a miss" `Quick
            test_diskcache_corrupted_entry;
          Alcotest.test_case "version mismatch wipes" `Quick
            test_diskcache_version_mismatch;
          Alcotest.test_case "mem validates like find" `Quick
            test_diskcache_mem_validates;
          Alcotest.test_case "orphaned temp files swept" `Quick
            test_diskcache_tmp_sweep;
          Alcotest.test_case "pre-codec directory wiped" `Quick
            test_diskcache_pre_codec_upgrade;
          Alcotest.test_case "corrupted index distrusted" `Quick
            test_diskcache_corrupted_index;
        ] );
      ( "compiled-core",
        [
          Alcotest.test_case "interner basics" `Quick test_interner_basic;
          Alcotest.test_case "heap basics" `Quick test_heap_basic;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "mismatches are misses" `Quick
            test_codec_mismatches;
          Alcotest.test_case "every truncation is a miss" `Quick
            test_codec_truncation_exhaustive;
          Alcotest.test_case "every single-bit flip is a miss" `Quick
            test_codec_bitflip_exhaustive;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse rejects malformed" `Quick
            test_json_parse_rejects;
          Alcotest.test_case "print-parse roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "telemetry report" `Quick test_telemetry_report_json;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "chi-square uniformity" `Quick test_rng_chi_square;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basic;
          Alcotest.test_case "no self loops" `Quick test_graph_no_self_loop;
          Alcotest.test_case "remove edge" `Quick test_graph_remove;
          Alcotest.test_case "edges canonical" `Quick test_graph_edges_sorted;
        ] );
      ( "gmetrics",
        [
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
          Alcotest.test_case "min degree group" `Quick test_min_degree_group;
          Alcotest.test_case "clustering coefficient" `Quick test_clustering;
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "dijkstra" `Quick test_dijkstra;
          Alcotest.test_case "star fixture" `Quick test_gmetrics_star;
          Alcotest.test_case "two disjoint cliques fixture" `Quick test_gmetrics_two_cliques;
          Alcotest.test_case "triangle fixture" `Quick test_gmetrics_triangle_fixture;
          Alcotest.test_case "pearson" `Quick test_pearson;
        ] );
      ("properties", qsuite);
    ]
