(* Tests for the crucible harness itself: generator determinism and
   validity, corpus round-trips, replay of the committed regression
   corpus, a fuzz smoke run — and the key self-check, that an injected
   routing fault is caught by a differential oracle and shrunk to a
   small repro that replays from its corpus file. *)

open Netcore
module Netspec = Netgen.Netspec

let gen_deterministic () =
  let a = Crucible.Gen.spec ~seed:42 () in
  let b = Crucible.Gen.spec ~seed:42 () in
  Alcotest.(check bool) "same seed, same spec" true (a = b);
  let c = Crucible.Gen.spec ~seed:43 () in
  Alcotest.(check bool) "different seed, different spec" true (a <> c)

let spec_graph (s : Netspec.t) =
  let g = List.fold_left (fun g r -> Graph.add_node r g) Graph.empty s.routers in
  List.fold_left (fun g (u, v, _) -> Graph.add_edge u v g) g s.links

let gen_valid () =
  for seed = 0 to 49 do
    let s = Crucible.Gen.spec ~seed () in
    let n = List.length s.Netspec.routers in
    if n < 3 || n > 12 then
      Alcotest.failf "seed %d: %d routers out of bounds" seed n;
    if not (Gmetrics.connected (spec_graph s)) then
      Alcotest.failf "seed %d: disconnected router graph" seed;
    if s.hosts = [] then Alcotest.failf "seed %d: no hosts" seed;
    (* AS partitions must cover every router or none. *)
    if s.asn <> [] && List.length s.asn <> n then
      Alcotest.failf "seed %d: partial AS assignment" seed
  done

let corpus_roundtrip () =
  for seed = 0 to 9 do
    let case =
      {
        Crucible.Corpus.c_name = Printf.sprintf "rt%d" seed;
        c_seed = seed;
        c_oracle = (if seed mod 2 = 0 then Some "rename" else None);
        c_spec = Crucible.Gen.spec ~seed ();
      }
    in
    let text = Crucible.Corpus.to_string case in
    match Crucible.Corpus.of_string text with
    | Error m -> Alcotest.failf "seed %d: %s" seed m
    | Ok case' ->
        (* The serialization is canonical: parsing and re-printing is the
           identity on the text, and the replay-relevant fields survive.
           (Structural case equality is too strict — the spec's own name
           is not serialized, and the AS list is normalized to router
           order.) *)
        if Crucible.Corpus.to_string case' <> text then
          Alcotest.failf "seed %d: corpus text did not round-trip" seed;
        if case'.c_seed <> seed || case'.c_oracle <> case.c_oracle then
          Alcotest.failf "seed %d: replay fields did not round-trip" seed;
        List.iter
          (fun r ->
            if
              Netspec.as_of case'.c_spec r <> Netspec.as_of case.c_spec r
            then Alcotest.failf "seed %d: AS of %s did not round-trip" seed r)
          case.c_spec.routers
  done

let corpus_rejects_invalid () =
  let bad s =
    match Crucible.Corpus.of_string s with
    | Ok _ -> Alcotest.failf "accepted invalid case: %s" (String.escaped s)
    | Error _ -> ()
  in
  bad "name x\nseed 0\nigp ospf\nrouter a\nlink a b 10\n";
  bad "name x\nseed 0\nigp ospf\nrouter a as 1\nrouter b\nlink a b 10\n";
  bad "name x\nseed 0\nigp nonsense\nrouter a\nrouter b\nlink a b 10\n"

(* Replays every committed test/corpus/*.case — each one is a minimized
   repro of a past defect (or a structural regression) that must stay
   green deterministically. *)
let corpus_regressions () =
  let cases = Crucible.Corpus.load_dir "corpus" in
  if cases = [] then Alcotest.fail "test/corpus is empty or missing";
  List.iter
    (fun (path, case) ->
      match Crucible.Runner.replay ~oracles:Crucible.Oracle.all case with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%s: oracle %s failed: %s" path
            f.Crucible.Runner.f_oracle f.f_message)
    cases

(* A short end-to-end fuzz run; CI's fuzz-smoke job covers larger ones. *)
let fuzz_smoke () =
  let gen = { Crucible.Gen.default with max_routers = 8; max_hosts = 4 } in
  let outcome =
    Crucible.Runner.run ~oracles:Crucible.Oracle.all ~gen ~seed:0 ~cases:5 ()
  in
  Alcotest.(check int) "cases run" 5 outcome.cases;
  match outcome.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "seed %d oracle %s: %s" f.Crucible.Runner.f_seed
        f.f_oracle f.f_message

(* -------------------- fault injection -------------------- *)

(* An intentionally broken engine stand-in: a differential oracle that
   compares the real simulation against FIBs with every BGP-learned
   route silently dropped. The harness must detect the divergence on
   generated nets and shrink the repro to a handful of routers. *)
let faulty_engine_oracle =
  {
    Crucible.Oracle.name = "injected_fault";
    doc = "differential check against an engine that loses BGP routes";
    check =
      (fun ~seed:_ spec ->
        let snap = Routing.Simulate.run_exn (Netgen.Emit.emit spec) in
        let drops_route _ fib =
          List.exists
            (fun (r : Routing.Fib.route) ->
              r.rt_proto = Routing.Fib.Ebgp || r.rt_proto = Routing.Fib.Ibgp)
            (Routing.Fib.routes fib)
        in
        if Routing.Device.Smap.exists drops_route snap.fibs then
          Crucible.Oracle.Fail "faulty engine dropped BGP routes"
        else Crucible.Oracle.Pass);
  }

let fault_caught_and_shrunk () =
  (* bgp_fraction 1.0: every net of >= 4 routers is AS-partitioned, so
     the injected fault must surface within a few seeds. *)
  let params = { Crucible.Gen.default with bgp_fraction = 1.0 } in
  let o = faulty_engine_oracle in
  let rec find seed =
    if seed > 50 then Alcotest.fail "injected fault never triggered"
    else
      let spec = Crucible.Gen.spec ~params ~seed () in
      match Crucible.Oracle.run o ~seed spec with
      | Fail _ -> (seed, spec)
      | Pass -> find (seed + 1)
  in
  let seed, spec = find 0 in
  let still_fails s =
    match Crucible.Oracle.run o ~seed s with Fail _ -> true | Pass -> false
  in
  let minimized, _steps = Crucible.Shrink.spec ~still_fails spec in
  let n = List.length minimized.Netspec.routers in
  if n > 6 then Alcotest.failf "minimized repro still has %d routers" n;
  Alcotest.(check bool) "minimized repro still fails" true (still_fails minimized);
  Alcotest.(check bool) "minimized spec stays connected" true
    (Gmetrics.connected (spec_graph minimized));
  (* The minimized repro must reproduce from its corpus file. *)
  let dir = Filename.temp_file "crucible" "corpus" in
  Sys.remove dir;
  let path =
    Crucible.Corpus.save ~dir
      { c_name = "fault"; c_seed = seed; c_oracle = None; c_spec = minimized }
  in
  match Crucible.Corpus.load_file path with
  | Error m -> Alcotest.fail m
  | Ok case ->
      let failures = Crucible.Runner.replay ~oracles:[ o ] case in
      Alcotest.(check int) "replay reproduces the failure" 1
        (List.length failures)

(* Planted faults in the production kernels, handed to [diff_fib] in place
   of the real ones: the oracle must catch each by comparing against the
   naive reference, while the real kernels pass on the same spec. *)

(* An off-by-one in the SPF edge costs: every OSPF link weighs one more
   than configured. *)
let off_by_one_ospf ?scope (net : Routing.Device.network) =
  let bump (a : Routing.Device.adj) =
    let i = a.a_out_iface in
    { a with a_out_iface = { i with ifc_cost = i.ifc_cost + 1 } }
  in
  Routing.Ospf.compute ?scope
    { net with adjs = Routing.Device.Smap.map (List.map bump) net.adjs }

(* ECMP next hops listed in reverse adjacency order: same sets, but the
   traceroute walk would visit them in a different order. *)
let reversed_nexthops ?scope net =
  Routing.Device.Smap.map
    (List.map (fun (r : Routing.Fib.route) ->
         { r with rt_nexthops = List.rev r.rt_nexthops }))
    (Routing.Ospf.compute ?scope net)

(* A view that forgets to rename: every pair reads its class pair's
   representative trace as stored, with the representative's endpoints. *)
let unrenamed_view snap =
  let dp = Routing.Simulate.dataplane snap in
  Routing.Dataplane.of_traces
    (Routing.Dataplane.fold
       (fun (src, dst) _ acc ->
         ((src, dst), Option.get (Routing.Dataplane.representative dp ~src ~dst)) :: acc)
       dp [])

let planted_faults_caught () =
  let faults =
    [
      ( "off-by-one SPF cost",
        { Crucible.Oracle.production with ospf = off_by_one_ospf },
        "OSPF routes" );
      ( "reversed ECMP next hops",
        { Crucible.Oracle.production with ospf = reversed_nexthops },
        "OSPF routes" );
      ( "unrenamed FEC view",
        { Crucible.Oracle.production with dataplane = unrenamed_view },
        "data-plane traces" );
    ]
  in
  List.iter
    (fun (label, kernels, part) ->
      let faulty = Crucible.Oracle.diff_fib_with kernels in
      let rec find seed =
        if seed > 30 then Alcotest.failf "%s: never caught" label
        else
          let spec = Crucible.Gen.spec ~seed () in
          match Crucible.Oracle.run faulty ~seed spec with
          | Fail m -> (seed, spec, m)
          | Pass -> find (seed + 1)
      in
      let seed, spec, msg = find 0 in
      let snap = Routing.Simulate.run_exn (Netgen.Emit.emit spec) in
      if Crucible.Oracle.kernel_divergence ~kernels snap <> Some part then
        Alcotest.failf "%s: caught for the wrong reason: %s" label msg;
      match Crucible.Oracle.run Crucible.Oracle.diff_fib ~seed spec with
      | Pass -> ()
      | Fail m -> Alcotest.failf "%s: real kernels fail too: %s" label m)
    faults

let () =
  Alcotest.run "crucible"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick gen_deterministic;
          Alcotest.test_case "valid and connected" `Quick gen_valid;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip" `Quick corpus_roundtrip;
          Alcotest.test_case "rejects invalid specs" `Quick corpus_rejects_invalid;
          Alcotest.test_case "committed regressions replay" `Quick
            corpus_regressions;
        ] );
      ( "harness",
        [
          Alcotest.test_case "fuzz smoke" `Quick fuzz_smoke;
          Alcotest.test_case "injected fault caught and shrunk" `Quick
            fault_caught_and_shrunk;
          Alcotest.test_case "planted kernel faults caught by diff_fib" `Quick
            planted_faults_caught;
        ] );
    ]
