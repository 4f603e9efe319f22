(* Tests for the specification miners' edge cases and the policy query
   engine: parser round-trips of both written forms of every family,
   evaluation against fabricated and simulated data planes, the
   differential verdicts, and extraction invariance — the production
   data plane (FEC collapse, compiled kernels) and the reference's
   per-pair traceroutes must produce identical outcomes, witness paths
   and all. *)

module Q = Spec.Query
module Dataplane = Routing.Dataplane

let trace delivered =
  {
    Dataplane.delivered;
    dropped = [];
    filtered = [];
    looped = [];
    truncated = false;
  }

(* A hand-built data plane: exactly the given (src, dst) -> paths map. *)
let dp_of pairs = Dataplane.of_traces (List.map (fun (s, d, paths) -> ((s, d), trace paths)) pairs)

(* ---- miner edge cases ---- *)

let mine_empty () =
  Alcotest.(check int)
    "empty data plane mines an empty specification" 0
    (List.length (Spec.mine (dp_of [])))

let mine_single_host () =
  (* One host means no ordered host pair, hence no policy at all. *)
  let spec =
    Netgen.Netspec.v ~name:"solo" ~igp:Netgen.Netspec.Ospf
      ~routers:[ "r0"; "r1" ]
      ~links:[ ("r0", "r1", 10) ]
      ~hosts:[ ("h0", "r0") ]
      ()
  in
  let snap = Routing.Simulate.run_exn (Netgen.Emit.emit spec) in
  let dp = Routing.Simulate.dataplane snap in
  Alcotest.(check int) "no pairs" 0 (Dataplane.fold (fun _ _ n -> n + 1) dp 0);
  Alcotest.(check int) "no policies" 0 (List.length (Spec.mine dp))

let mine_loadbalance_boundary () =
  let two =
    dp_of [ ("a", "b", [ [ "a"; "r1"; "b" ]; [ "a"; "r2"; "b" ] ]) ]
  in
  let mined = Spec.mine two in
  Alcotest.(check bool)
    "two paths mine loadbalance(a, b, 2)" true
    (List.mem (Q.Loadbalance ("a", "b", 2)) mined);
  (* The mined count is exact: eval holds at n = count ... *)
  Alcotest.(check bool)
    "eval holds at the mined count" true
    (Q.eval two (Q.Loadbalance ("a", "b", 2))).Q.holds;
  (* ... and fails one past it, with the insufficient set as evidence. *)
  let above = Q.eval two (Q.Loadbalance ("a", "b", 3)) in
  Alcotest.(check bool) "eval fails at count + 1" false above.Q.holds;
  Alcotest.(check int) "counterexample = the path set" 2
    (List.length above.Q.counterexample);
  let one = dp_of [ ("a", "b", [ [ "a"; "r1"; "b" ] ]) ] in
  Alcotest.(check bool)
    "a single path mines no loadbalance policy" false
    (List.exists
       (function Q.Loadbalance _ -> true | _ -> false)
       (Spec.mine one))

let introduced_one_fake_endpoint () =
  let d =
    Spec.compare_specs ~orig:[]
      ~anon:
        [
          Q.Reachability ("h1", "fake9");
          Q.Reachability ("fake9", "h1");
          Q.Reachability ("h1", "h2");
        ]
  in
  let benign = Spec.introduced_involving d ~hosts:[ "h1"; "h2" ] in
  (* One fake endpoint is enough to make a policy benign-introduced;
     a both-real introduced policy stays out. *)
  Alcotest.(check int) "two fake-endpoint policies" 2 (List.length benign);
  Alcotest.(check bool)
    "both-real policy excluded" false
    (List.mem (Q.Reachability ("h1", "h2")) benign)

(* ---- query parser ---- *)

let policy_cases =
  [
    Q.Reachability ("h1", "h2");
    Q.Waypoint ("h1", "h2", "r3");
    Q.Isolation ("dmz-h", "core-h");
    Q.Loadbalance ("h1", "h2", 3);
    Q.Path_length ("h1", "h2", 4);
    Q.Black_hole ("h1", "h2");
    Q.Multipath_inconsistent ("h1", "h2");
    Q.Routing_loop ("h1", "h2");
  ]

let parse_roundtrip () =
  List.iter
    (fun p ->
      match Q.parse_policy (Q.to_string p) with
      | Ok p' when p' = p -> ()
      | Ok p' ->
          Alcotest.failf "%s parsed to %s" (Q.to_string p) (Q.to_string p')
      | Error m -> Alcotest.failf "%s failed to parse: %s" (Q.to_string p) m)
    policy_cases

let parse_file_text () =
  let text =
    "# the operator's contract\n\
     reach(h1, h2)\n\
     \n\
     waypoint(h1, h2, fw)  # via the firewall\n\
     isolation(h3, h1)\n\
     loadbalance(h1, h2, 2)\n\
     pathlength(h1, h2, 3)\n\
     blackhole(h3, h1)\n\
     inconsistent(h3, h1)\n\
     loop(h2, h3)\n"
  in
  match Q.parse text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok ps ->
      Alcotest.(check (list string))
        "policies in file order"
        [
          "reach(h1, h2)"; "waypoint(h1, h2, fw)"; "isolation(h3, h1)";
          "loadbalance(h1, h2, 2)"; "pathlength(h1, h2, 3)"; "blackhole(h3, h1)";
          "inconsistent(h3, h1)"; "loop(h2, h3)";
        ]
        (List.map Q.to_string ps)

let parse_file_json () =
  let text =
    {|[ {"type": "reachability", "src": "h1", "dst": "h2"},
       {"type": "waypoint", "src": "h1", "dst": "h2", "via": "fw"},
       {"type": "isolation", "src": "h3", "dst": "h1"},
       {"type": "loadbalance", "src": "h1", "dst": "h2", "paths": 2},
       {"type": "pathlength", "src": "h1", "dst": "h2", "length": 3},
       {"type": "blackhole", "src": "h3", "dst": "h1"} ]|}
  in
  match Q.parse text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok ps ->
      Alcotest.(check (list string))
        "JSON array, auto-detected"
        [
          "reach(h1, h2)"; "waypoint(h1, h2, fw)"; "isolation(h3, h1)";
          "loadbalance(h1, h2, 2)"; "pathlength(h1, h2, 3)"; "blackhole(h3, h1)";
        ]
        (List.map Q.to_string ps)

let parse_rejects () =
  let rejected input =
    match Q.parse_policy input with
    | Error _ -> ()
    | Ok p -> Alcotest.failf "%S parsed to %s" input (Q.to_string p)
  in
  List.iter rejected
    [
      "reach(a)";
      "waypoint(a, b)";
      "loadbalance(a, b, x)";
      "loadbalance(a, b, 0)";
      "pathlength(a, b, 0)";
      "pathlength(a, b)";
      "blackhole(a, b, c)";
      "frob(a, b)";
      "reach(a, b";
      "reach(a b, c)";
      "";
    ];
  (match Q.parse "reach(h1, h2)\nbogus line\n" with
  | Error m ->
      Alcotest.(check bool)
        "text error names the line" true
        (String.length m >= 7 && String.sub m 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "bogus line accepted");
  List.iter
    (fun text ->
      match Q.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad JSON %S accepted" text)
    [
      {|[{"type": "reachability"}]|};
      {|[{"src": "a", "dst": "b"}]|};
      {|[{"type": "waypoint", "src": "a", "dst": "b"}]|};
      {|[{"type": "loadbalance", "src": "a", "dst": "b", "paths": 0}]|};
      {|[{"type": "pathlength", "src": "a", "dst": "b"}]|};
      {|["reach(a, b)"]|};
    ];
  (* A field the policy's family does not take is named, not dropped. *)
  List.iter
    (fun (text, want) ->
      Alcotest.(check (result (list string) string))
        text (Error want)
        (Result.map (List.map Q.to_string) (Q.parse text)))
    [
      ( {|[{"type": "reach", "src": "ha1", "dst": "hb1", "dts": "x"}]|},
        {|policy 0: unknown field "dts"|} );
      ( {|[{"type": "reach", "src": "a", "dst": "b"},
           {"type": "reach", "src": "a", "dst": "b", "via": "c"}]|},
        {|policy 1: unknown field "via"|} );
      ( {|[{"type": "waypoint", "src": "a", "dst": "b", "via": "c", "paths": 2}]|},
        {|policy 0: unknown field "paths"|} );
    ]

(* ---- evaluation and verdicts on a fabricated pair ---- *)

let differential_verdicts () =
  let orig =
    dp_of
      [
        ("h1", "h2", [ [ "h1"; "r1"; "h2" ] ]);
        ("h2", "h1", [ [ "h2"; "r1"; "h1" ] ]);
      ]
  in
  let anon =
    dp_of
      [
        ("h1", "h2", [ [ "h1"; "r1"; "h2" ] ]);
        (* h2 -> h1 lost; h3 (a fake host) reaches h1 *)
        ("fh3", "h1", [ [ "fh3"; "r1"; "h1" ] ]);
      ]
  in
  let known n = List.mem n [ "h1"; "h2"; "r1" ] in
  let entries =
    Q.differential ~orig ~anon ~known
      [
        Q.Reachability ("h1", "h2");
        Q.Reachability ("h2", "h1");
        Q.Isolation ("h1", "h2");
        Q.Isolation ("h2", "h1");
        Q.Reachability ("fh3", "h1");
      ]
  in
  Alcotest.(check (list string))
    "verdicts in input order"
    [ "holds_both"; "lost"; "holds_neither"; "introduced"; "fake_only" ]
    (List.map (fun (e : Q.entry) -> Q.verdict_to_string e.e_verdict) entries);
  let s = Q.summarize entries in
  Alcotest.(check int) "total" 5 s.Q.total;
  Alcotest.(check int) "fake_only" 1 s.Q.fake_only;
  Alcotest.(check (float 1e-9)) "kept fraction" 0.5 s.Q.kept_fraction;
  (* Fake_only entries carry no original-side outcome. *)
  List.iter
    (fun (e : Q.entry) ->
      Alcotest.(check bool)
        "e_orig present iff not fake_only"
        (e.e_verdict <> Q.Fake_only)
        (e.e_orig <> None))
    entries;
  Alcotest.(check (float 1e-9))
    "empty summary keeps everything" 1.0 (Q.summarize []).Q.kept_fraction

let evidence_capped () =
  let paths =
    List.init 12 (fun i -> [ "a"; Printf.sprintf "r%02d" i; "b" ])
  in
  let dp = dp_of [ ("a", "b", paths) ] in
  let o = Q.eval dp (Q.Reachability ("a", "b")) in
  Alcotest.(check int) "witness capped" Q.max_evidence (List.length o.Q.witness);
  (* The verdict itself still sees all 12 paths. *)
  Alcotest.(check bool)
    "loadbalance(12) holds despite the cap" true
    (Q.eval dp (Q.Loadbalance ("a", "b", 12))).Q.holds

(* ---- qcheck properties ---- *)

(* Any name [Q.parse] accepts: no delimiter, blank or control byte. *)
let name_gen =
  let open QCheck2.Gen in
  let byte = map Char.chr (int_range 0x21 0xff) in
  string_size ~gen:byte (int_range 1 8)
  |> map (String.map (function '(' | ')' | ',' | '#' -> '_' | c -> c))

let policy_gen =
  let open QCheck2.Gen in
  let count = int_range 1 9 in
  oneof
    [
      map2 (fun s d -> Q.Reachability (s, d)) name_gen name_gen;
      map3 (fun s d w -> Q.Waypoint (s, d, w)) name_gen name_gen name_gen;
      map2 (fun s d -> Q.Isolation (s, d)) name_gen name_gen;
      map3 (fun s d n -> Q.Loadbalance (s, d, n)) name_gen name_gen count;
      map3 (fun s d n -> Q.Path_length (s, d, n)) name_gen name_gen count;
      map2 (fun s d -> Q.Black_hole (s, d)) name_gen name_gen;
      map2 (fun s d -> Q.Multipath_inconsistent (s, d)) name_gen name_gen;
      map2 (fun s d -> Q.Routing_loop (s, d)) name_gen name_gen;
    ]

let qcheck_parse_roundtrip =
  let open QCheck2 in
  Test.make ~name:"policy file = parse . print" ~count:100
    (Gen.list_size (Gen.int_range 0 12) policy_gen)
    (fun ps ->
      let text = String.concat "\n" (List.map Q.to_string ps) in
      match Q.parse text with
      | Ok ps' -> ps' = ps
      | Error m -> Test.fail_reportf "printed file failed to parse: %s" m)

let qcheck_policy_forms =
  (* Both written forms of one policy, in every family, read back to it. *)
  let open QCheck2 in
  Test.make ~name:"every family: text and JSON forms parse back" ~count:500
    ~print:Q.to_string policy_gen (fun p ->
      let json = Netcore.Json.to_string (Netcore.Json.Arr [ Q.to_json p ]) in
      Q.parse_policy (Q.to_string p) = Ok p && Q.parse json = Ok [ p ])

let qcheck_mined_holds =
  (* The miners' output is sound by construction: every mined policy
     evaluates to holds on the very data plane it was mined from. *)
  let open QCheck2 in
  Test.make ~name:"mined policies hold on their own data plane" ~count:20
    (Gen.int_range 0 10_000)
    (fun seed ->
      let spec = Crucible.Gen.spec ~seed () in
      let snap = Routing.Simulate.run_exn (Netgen.Emit.emit spec) in
      let dp = Routing.Simulate.dataplane snap in
      List.for_all
        (fun p ->
          (Q.eval dp p).Q.holds
          || Test.fail_reportf "seed %d: mined %s does not hold" seed (Q.to_string p))
        (Spec.mine dp @ Spec.mine_properties dp))

(* ---- invariance: FEC collapse and compiled kernels ---- *)

(* Evaluation must be blind to how the data plane was extracted: the
   production extraction (FEC collapse on the compiled kernels) and the
   reference's plain per-pair traceroutes must agree on every outcome
   record — holds flag, witness paths and counterexample paths.
   Exercised on the four smallest catalog networks, over the mined
   specification plus an isolation probe per net (outcomes that hold and
   ones that do not). *)
let outcome_eq (a : Q.outcome) (b : Q.outcome) =
  a.Q.holds = b.Q.holds && a.Q.witness = b.Q.witness
  && a.Q.counterexample = b.Q.counterexample

let mode_invariance () =
  List.iter
    (fun net ->
      let configs = Netgen.Nets.configs (Netgen.Nets.find net) in
      let snap = Routing.Simulate.run_exn configs in
      let dp = Routing.Simulate.dataplane snap in
      let dp_ref = Crucible.Reference.dataplane snap in
      let policies =
        Spec.mine dp @ Spec.mine_properties dp
        @
        match Dataplane.all_delivered dp with
        | ((s, d), _) :: _ ->
            [
              Q.Isolation (s, d); Q.Reachability (s, "no-such-host");
              Q.Black_hole (s, d); Q.Path_length (s, d, 1);
            ]
        | [] -> []
      in
      List.iter
        (fun p ->
          if not (outcome_eq (Q.eval dp p) (Q.eval dp_ref p)) then
            Alcotest.failf "net %s: %s differs on the reference data plane"
              net (Q.to_string p))
        policies)
    [ "A"; "B"; "C"; "D" ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "spec"
    [
      ( "miner",
        [
          case "empty data plane" mine_empty;
          case "single host" mine_single_host;
          case "loadbalance boundary" mine_loadbalance_boundary;
          case "introduced with one fake endpoint" introduced_one_fake_endpoint;
        ] );
      ( "parser",
        [
          case "round-trip" parse_roundtrip;
          case "text policy file" parse_file_text;
          case "json policy file" parse_file_json;
          case "rejections" parse_rejects;
        ] );
      ( "differential",
        [
          case "verdicts and summary" differential_verdicts;
          case "evidence cap" evidence_capped;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_parse_roundtrip; qcheck_policy_forms; qcheck_mined_holds ] );
      ("modes", [ case "fec and kernel invariance" mode_invariance ]);
    ]
