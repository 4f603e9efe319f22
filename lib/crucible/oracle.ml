open Netcore
module Smap = Routing.Device.Smap

type verdict = Pass | Fail of string

type t = {
  name : string;
  doc : string;
  check : seed:int -> Netgen.Netspec.t -> verdict;
}

let oracle_runs = Telemetry.counter "crucible.oracle_runs"

let fibs_equal a b = Smap.equal ( = ) a b

let fail fmt = Printf.ksprintf (fun m -> Fail m) fmt

(* -------------------- differential FIB -------------------- *)

type kernels = {
  ospf :
    ?scope:(string -> bool) ->
    Routing.Device.network ->
    Routing.Fib.route list Smap.t;
  dataplane : Routing.Simulate.snapshot -> Routing.Dataplane.t;
}

let production =
  {
    ospf = (fun ?scope net -> Routing.Ospf.compute ?scope net);
    dataplane = (fun s -> Routing.Simulate.dataplane s);
  }

(* Pair for pair through the view: the same pairs, the same traces. *)
let traces_equal a b =
  let pairs dp = Routing.Dataplane.fold (fun k t acc -> (k, t) :: acc) dp [] in
  pairs a = pairs b

(* Routes in prefix order, which the model leaves open. Next-hop order is
   compared as given: both sides list next hops in adjacency order, and
   the traceroute walk depends on it. *)
let canon_routes m =
  Smap.map
    (List.sort (fun (a : Routing.Fib.route) (b : Routing.Fib.route) ->
         Prefix.compare a.rt_prefix b.rt_prefix))
    m

(* Compare the production kernels against [Reference] on one snapshot:
   OSPF selection and min-cost distances per IGP domain, the probe LPM
   against [Fib.lookup] on every host and route network address, and
   the data plane, which must agree trace for trace with one plain
   traceroute per host pair. *)
let kernel_divergence ?(kernels = production) (snap : Routing.Simulate.snapshot)
    =
  let net = snap.net in
  let domains = Routing.Simulate.igp_domains net in
  let ospf_diverges (d : Routing.Simulate.igp_domain) =
    let scope = d.dom_scope in
    not
      (Smap.equal ( = )
         (canon_routes (kernels.ospf ~scope net))
         (canon_routes (Reference.ospf_routes ~scope net)))
  in
  let min_cost_diverges (d : Routing.Simulate.igp_domain) =
    let scope = d.dom_scope in
    let query = Routing.Ospf.min_cost ~scope net in
    List.exists
      (fun u ->
        let got = query u and want = Reference.min_cost ~scope net u in
        Smap.exists (fun v _ -> got v <> Smap.find_opt v want) net.routers
        || Smap.exists (fun v c -> got v <> Some c) want)
      d.dom_members
  in
  if List.exists ospf_diverges domains then Some "OSPF routes"
  else if List.exists min_cost_diverges domains then Some "OSPF min_cost"
  else
    (* Every host address, and the network address of every installed
       route: a match boundary at each prefix length the FIBs hold. *)
    let addrs =
      Smap.fold
        (fun _ fib acc ->
          List.fold_left
            (fun acc (r : Routing.Fib.route) -> Prefix.network r.rt_prefix :: acc)
            acc (Routing.Fib.routes fib))
        snap.fibs
        (Smap.fold
           (fun _ (h : Routing.Device.host) acc -> h.h_addr :: acc)
           net.hosts [])
      |> List.sort_uniq Ipv4.compare
    in
    let lpm_diverges =
      Smap.exists
        (fun _ fib ->
          let pb = Routing.Fib.probe fib in
          List.exists
            (fun a ->
              Routing.Fib.lookup fib a
              <> Routing.Fib.probe_lpm pb (Routing.Fib.dest a))
            addrs)
        snap.fibs
    in
    if lpm_diverges then Some "LPM lookups"
    else if not (traces_equal (kernels.dataplane snap) (Reference.dataplane snap))
    then Some "data-plane traces"
    else None

(* -------------------- fake-link edits -------------------- *)

(* A point-to-point OSPF link between [u] and [v], built with the edits
   topology anonymization makes for a fake link: a fresh /30, one new
   interface per end with the given OSPF cost, and the subnet in both
   routers' IGP network statements. *)
let add_link configs ~u ~v ?cost_uv ?cost_vu () =
  let alloc =
    Prefix.alloc_create ~avoid:(Confmask.Edits.used_prefixes configs) ()
  in
  let subnet = Prefix.alloc_fresh alloc ~len:30 in
  let link_end addr cost peer c =
    let name = Confmask.Edits.fresh_iface_name c in
    let c =
      Confmask.Edits.add_interface c ~name ~addr ~plen:30 ?cost
        ~desc:("to-" ^ peer) ()
    in
    Confmask.Edits.add_igp_network c subnet
  in
  Confmask.Edits.update_all configs
    [
      (u, link_end (Prefix.host subnet 1) cost_uv v);
      (v, link_end (Prefix.host subnet 2) cost_vu u);
    ]

(* Up to [count] new links between distinct non-adjacent OSPF routers of
   one IGP domain that reach each other. Each direction costs the
   original shortest-path distance (the SFE cost rule), or with [below]
   a random cost strictly under it, which shortens some paths. *)
let add_links ~rng ~below ~count (net : Routing.Device.network) configs =
  let runs_ospf r =
    match Smap.find_opt r net.routers with
    | Some r -> r.Routing.Device.r_ospf <> None
    | None -> false
  in
  let pairs =
    List.concat_map
      (fun (d : Routing.Simulate.igp_domain) ->
        let members = List.filter runs_ospf d.dom_members in
        let query = Routing.Ospf.min_cost ~scope:d.dom_scope net in
        let dists = List.map (fun u -> (u, query u)) members in
        let dist u v = List.assoc u dists v in
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v ->
                if String.compare u v >= 0 || Routing.Device.find_adj net u v <> None
                then None
                else
                  match (dist u v, dist v u) with
                  | Some duv, Some dvu when (not below) || (duv >= 2 && dvu >= 2) ->
                      Some (u, v, duv, dvu)
                  | _ -> None)
              members)
          members)
      (Routing.Simulate.igp_domains net)
  in
  let under d = 1 + Rng.int rng (d - 1) in
  let rec go configs pairs n =
    if n = 0 || pairs = [] then configs
    else
      let ((u, v, duv, dvu) as pair) = Rng.pick rng pairs in
      let cost_uv, cost_vu = if below then (under duv, under dvu) else (duv, dvu) in
      go
        (add_link configs ~u ~v ~cost_uv ~cost_vu ())
        (List.filter (fun p -> p <> pair) pairs)
        (n - 1)
  in
  go configs pairs count

let diff_fib_check kernels ~seed spec =
  let configs0 = Netgen.Emit.emit spec in
  (* Single- vs multi-domain pool: parallelism must not change results. *)
  let pool1 = Pool.create ~jobs:1 () in
  let seq = Routing.Simulate.run_exn ~pool:pool1 configs0 in
  Pool.shutdown pool1;
  let par = Routing.Simulate.run_exn configs0 in
  if not (fibs_equal seq.fibs par.fibs) then
    Fail "sequential and parallel simulation disagree"
  else
    (* Sharded SPF selection folds per-worker chunks back in a fixed
       order; an explicit oversubscribed pool must still be
       bit-identical to the single-job run. *)
    let par4 =
      let pool4 = Pool.create ~jobs:4 () in
      let s = Routing.Simulate.run_exn ~pool:pool4 configs0 in
      Pool.shutdown pool4;
      s
    in
    if not (fibs_equal seq.fibs par4.fibs) then
      Fail "jobs-4 sharded simulation diverges from sequential"
    else begin
    let eng = ref (Routing.Engine.of_configs_exn configs0) in
    if not (fibs_equal (Routing.Engine.fibs !eng) par.fibs) then
      Fail "engine initial build diverges from from-scratch simulation"
    else begin
      match kernel_divergence ~kernels par with
      | Some what ->
          fail "production diverges from the reference on %s (initial build)"
            what
      | None ->
      (* Edit walk covering every edit family the anonymization pipeline
         issues — deny filters and their rollback (the fixpoints),
         interface additions (fake hosts), fake links at the SFE min cost
         and below it (the engine extends its distance fields across the
         first and must recompute what the second relaxes), and
         link-cost rewrites — each step re-checked against a fresh
         simulation. *)
      let rng = Rng.create (seed lxor 0x2c9277b5) in
      let configs = ref configs0 in
      let denies = ref [] in
      let verdict = ref Pass in
      let step = ref 0 in
      while !verdict = Pass && !step < 4 do
        incr step;
        let net = Routing.Engine.network !eng in
        let hps = List.map fst (Routing.Simulate.host_prefixes net) in
        let adj_routers =
          List.filter (fun (_, adjs) -> adjs <> []) (Smap.bindings net.adjs)
        in
        let kind =
          let k = Rng.int rng 12 in
          if k < 4 then `Deny
          else if k < 6 then if !denies = [] then `Deny else `Undeny
          else if k < 8 then `AddIface
          else if k < 10 then `Cost
          else if k < 11 then `LinkMin
          else `LinkBelow
        in
        (match kind with
        | `Deny -> (
            match (adj_routers, hps) with
            | [], _ | _, [] -> ()
            | _ -> (
                let r, adjs = Rng.pick rng adj_routers in
                let a = Rng.pick rng adjs in
                let hp = Rng.pick rng hps in
                match Confmask.Attach.point net r a.Routing.Device.a_to with
                | None -> ()
                | Some at ->
                    configs :=
                      Confmask.Edits.update !configs r (fun c ->
                          Confmask.Attach.deny_at c at hp);
                    denies := (r, at, hp) :: !denies))
        | `Undeny ->
            let ((r, at, hp) as d) = Rng.pick rng !denies in
            configs :=
              Confmask.Edits.update !configs r (fun c ->
                  Confmask.Attach.undeny_at c at hp);
            denies := List.filter (fun x -> x <> d) !denies
        | `AddIface ->
            let routers =
              List.map fst (Smap.bindings net.Routing.Device.routers)
            in
            let r = Rng.pick rng routers in
            let alloc =
              Prefix.alloc_create
                ~avoid:(Confmask.Edits.used_prefixes !configs)
                ()
            in
            let subnet = Prefix.alloc_fresh alloc ~len:24 in
            let addr = Prefix.host subnet 1 in
            configs :=
              Confmask.Edits.update !configs r (fun c ->
                  let name = Confmask.Edits.fresh_iface_name c in
                  let c =
                    Confmask.Edits.add_interface c ~name ~addr ~plen:24
                      ~desc:"crucible" ()
                  in
                  Confmask.Edits.add_igp_network c subnet)
        | `LinkMin -> configs := add_links ~rng ~below:false ~count:1 net !configs
        | `LinkBelow -> configs := add_links ~rng ~below:true ~count:1 net !configs
        | `Cost -> (
            match adj_routers with
            | [] -> ()
            | _ ->
                let r, adjs = Rng.pick rng adj_routers in
                let a = Rng.pick rng adjs in
                let iface = a.Routing.Device.a_out_iface.ifc_name in
                let cost = 1 + Rng.int rng 20 in
                configs :=
                  Confmask.Edits.update !configs r (fun c ->
                      {
                        c with
                        interfaces =
                          List.map
                            (fun (i : Configlang.Ast.interface) ->
                              if String.equal i.if_name iface then
                                { i with if_cost = Some cost }
                              else i)
                            c.interfaces;
                      })));
        eng := Routing.Engine.apply_edit_exn !eng !configs;
        let fresh = Routing.Simulate.run_exn !configs in
        if not (fibs_equal (Routing.Engine.fibs !eng) fresh.fibs) then
          verdict := fail "incremental engine diverges from scratch after edit %d" !step
        else begin
          match kernel_divergence ~kernels fresh with
          | Some what ->
              verdict :=
                fail "production diverges from the reference on %s after edit %d"
                  what !step
          | None -> ()
        end
      done;
      !verdict
    end
  end

let diff_fib_with kernels =
  {
    name = "diff_fib";
    doc =
      "engine vs from-scratch vs pool-parallel (jobs 1 and 4) FIBs, OSPF \
       and data plane vs the naive reference, with an edit walk";
    check = diff_fib_check kernels;
  }

let diff_fib = diff_fib_with production

(* -------------------- workflow invariants -------------------- *)

(* Small ks keep per-case cost low while still forcing fake edges and
   fake hosts on every generated net. *)
let wf_params ~seed =
  { Confmask.Workflow.default_params with k_r = 2; k_h = 2; seed; pii = false }

let workflow_check ~seed spec =
  let configs = Netgen.Emit.emit spec in
  let params = wf_params ~seed in
  match Confmask.Workflow.run ~params configs with
  | Error m -> fail "workflow error: %s" m
  | Ok r ->
      let g = Routing.Device.router_graph r.anon_snapshot.net in
      if not (Gmetrics.is_k_degree_anonymous params.k_r g) then
        fail "anonymized topology is not %d-degree anonymous (min group %d)"
          params.k_r (Gmetrics.min_degree_group g)
      else
        match
          Reference.equivalence ~orig:r.orig_snapshot ~anon:r.anon_snapshot
        with
        | Error m -> fail "functional equivalence violated: %s" m
        | Ok () -> (
            (* Determinism: a second run under the same seed, on the same
               configs listed in a shuffled order, must give every device
               the same bytes, parallel pool and all. *)
            let shuffled = Rng.shuffle (Rng.create seed) configs in
            let texts r =
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (Confmask.Workflow.anon_texts r)
            in
            match Confmask.Workflow.run ~params shuffled with
            | Error m -> fail "workflow error on re-run: %s" m
            | Ok r2 ->
                if texts r <> texts r2 then
                  Fail
                    "output not byte-identical under a fixed seed and a \
                     shuffled config list"
                else Pass)

let workflow =
  {
    name = "workflow";
    doc =
      "k-degree anonymity, functional equivalence on the reference data \
       plane, determinism under a fixed seed and a shuffled config list";
    check = workflow_check;
  }

(* -------------------- metamorphic: router renaming -------------------- *)

let rename_check ~seed spec =
  let rng = Rng.create (seed lxor 0x7ed55d15) in
  let perm = Rng.shuffle rng spec.Netgen.Netspec.routers in
  let map = Hashtbl.create 16 in
  List.iter2 (fun a b -> Hashtbl.replace map a b) spec.routers perm;
  let rn x = Option.value ~default:x (Hashtbl.find_opt map x) in
  (* Same declaration order, new labels: the emitter numbers subnets by
     position, so addresses — and hence path costs and tie-breaks — are
     identical and the FIBs must be equal up to the renaming. *)
  let spec' =
    Netgen.Netspec.v ~name:spec.name
      ~asn:(List.map (fun (r, a) -> (rn r, a)) spec.asn)
      ~igp:spec.igp
      ~routers:(List.map rn spec.routers)
      ~links:(List.map (fun (u, v, c) -> (rn u, rn v, c)) spec.links)
      ~hosts:(List.map (fun (h, r) -> (h, rn r)) spec.hosts)
      ()
  in
  let routes s =
    Routing.Simulate.host_routes (Routing.Simulate.run_exn (Netgen.Emit.emit s))
  in
  let canon rows =
    List.sort compare
      (List.map
         (fun (r, p, nhs) -> (r, Prefix.to_string p, List.sort compare nhs))
         rows)
  in
  let renamed =
    canon (List.map (fun (r, p, nhs) -> (rn r, p, List.map rn nhs)) (routes spec))
  in
  if renamed <> canon (routes spec') then
    Fail "router renaming changed the FIB structure"
  else Pass

let rename =
  {
    name = "rename";
    doc = "permuting router names permutes but does not change the FIBs";
    check = rename_check;
  }

(* -------------------- metamorphic: re-anonymization -------------------- *)

let reanon_check ~seed spec =
  let params = wf_params ~seed in
  match Confmask.Workflow.run ~params (Netgen.Emit.emit spec) with
  | Error m -> fail "workflow error: %s" m
  | Ok r1 -> (
      match
        Confmask.Workflow.run
          ~params:{ params with seed = params.seed + 1 }
          r1.anon_configs
      with
      | Error m -> fail "re-anonymization error: %s" m
      | Ok r2 ->
          let g = Routing.Device.router_graph r2.anon_snapshot.net in
          if not (Gmetrics.is_k_degree_anonymous params.k_r g) then
            fail "re-anonymizing lost k-degree anonymity (min group %d)"
              (Gmetrics.min_degree_group g)
          else Pass)

let reanon =
  {
    name = "reanon";
    doc = "re-anonymizing an anonymized network keeps k-degree anonymity";
    check = reanon_check;
  }

(* -------------------- PII scrub -------------------- *)

(* Kept in sync with [Pii.Scrub.sensitive_keywords], including the
   hyphen-compound rule: a token is sensitive when it equals a keyword
   or extends one with a hyphen (key-string, community-map, ...). *)
let sensitive_keywords =
  [ "password"; "secret"; "community"; "key"; "key-string"; "md5" ]

let is_sensitive_token tok =
  let tok = String.lowercase_ascii tok in
  List.exists
    (fun kw ->
      String.equal tok kw
      || (String.length tok > String.length kw
          && String.sub tok 0 (String.length kw + 1) = kw ^ "-"))
    sensitive_keywords

(* The secret material of a config text: every token following a
   sensitive keyword on its line. Tokens of fewer than 6 characters
   (encryption-type digits, the keyword [ro], ...) are too generic to
   assert absence of. *)
let secrets_of_text text =
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         let tokens =
           String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
         in
         let rec after = function
           | [] -> []
           | tok :: rest -> if is_sensitive_token tok then rest else after rest
         in
         after tokens)
  |> List.filter (fun s -> String.length s >= 6)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl > 0 && nl <= hl
  && (let found = ref false in
      for i = 0 to hl - nl do
        if (not !found) && String.sub hay i nl = needle then found := true
      done;
      !found)

let scrub_check ~seed spec =
  let configs = Netgen.Emit.emit spec in
  let key = Pii.Pan.key_of_int seed in
  let params = { (wf_params ~seed) with pii = true; pii_key = Some key } in
  match Confmask.Workflow.run ~params configs with
  | Error m -> fail "workflow error: %s" m
  | Ok r ->
      let anon = String.concat "\n" (List.map snd (Confmask.Workflow.anon_texts r)) in
      let secrets =
        List.concat_map
          (fun c -> secrets_of_text (Configlang.Printer.to_string c))
          configs
      in
      let leaked = List.find_opt (fun s -> contains ~needle:s anon) secrets in
      let orig_names = spec.Netgen.Netspec.routers @ List.map fst spec.hosts in
      let name_leak = List.find_opt (fun n -> contains ~needle:n anon) orig_names in
      (match (leaked, name_leak) with
      | Some s, _ -> fail "sensitive token %S survived the scrub" s
      | None, Some n -> fail "original device name %S survived the scrub" n
      | None, None -> Pass)

let scrub =
  {
    name = "scrub";
    doc = "no sensitive token or original device name survives the PII add-on";
    check = scrub_check;
  }

(* -------------------- metamorphic: policy transfer -------------------- *)

module Query = Spec.Query

(* The recipient's view of functional equivalence, checked twice.

   First, every policy mined from the original network (reachability,
   waypoints, load-balance width — all between real nodes, all holding
   on the original by construction) must still hold on the anonymized
   network. Fake elements may add capacity but must never break
   reachability, divert traffic off its waypoints, or narrow a
   load-balanced pair. A [Lost] verdict is the interesting failure; any
   [fake_only] / [introduced] / [holds_neither] verdict would mean the
   differential checker itself mis-handled a mined-on-original policy,
   so those fail too, named distinctly.

   Second, Theorem B.7 over the real hosts: the Appendix B property sets
   of the two planes are equal, and every property of the original is
   [holds_both] under the differential check, so every evaluation arm
   runs on every fuzzed net. A single-host net mines empty sets and
   passes vacuously. *)
let policy_transfer_check ~seed spec =
  let params = wf_params ~seed in
  match Confmask.Workflow.run ~params (Netgen.Emit.emit spec) with
  | Error m -> fail "workflow error: %s" m
  | Ok r -> (
      let hosts = Confmask.Workflow.real_hosts r in
      let dp_orig = Routing.Simulate.dataplane r.orig_snapshot in
      let props = Spec.mine_properties ~hosts dp_orig in
      let b7 =
        Spec.compare_specs ~orig:props
          ~anon:(Spec.mine_properties ~hosts (Routing.Simulate.dataplane r.anon_snapshot))
      in
      let v = Confmask.Verify.of_report ~entries:true ~policies:(Spec.mine dp_orig @ props) r in
      match
        ( List.find_opt
            (fun (e : Query.entry) -> e.e_verdict <> Query.Holds_both)
            (Option.value ~default:[] v.entries),
          b7.lost,
          b7.introduced )
      with
      | Some e, _, _ ->
          fail "mined policy %s is %s after anonymization"
            (Query.to_string e.e_policy)
            (Query.verdict_to_string e.e_verdict)
      | None, p :: _, _ -> fail "Theorem B.7: %s lost" (Query.to_string p)
      | None, [], p :: _ -> fail "Theorem B.7: %s gained" (Query.to_string p)
      | None, [], [] -> Pass)

let policy_transfer =
  {
    name = "policy_transfer";
    doc =
      "every policy mined from the original network (reach, waypoint, \
       load-balance) still holds on the anonymized one, and the Appendix B \
       properties over real hosts are the same on both (Theorem B.7)";
    check = policy_transfer_check;
  }

(* -------------------- red-team security budget -------------------- *)

(* Run the de-anonymization attack suite against a PII-scrubbed workflow
   output and assert the guaranteed parts of the security budget. Only
   invariants that hold on *every* generated net are checked — the
   re-identification and filter-pattern rates are measurements, not
   bounds (tiny nets legitimately score high on them; see EXPERIMENTS.md
   known deviations):

   - all precision/recall values land in [0, 1];
   - a planted legacy small-int key is recovered by the brute force
     (recall 1) and a full 64-bit key is not (recall 0) — the measured
     form of the key-width bugfix;
   - the prefix-structure attack scores recall exactly 1 against the
     Crypto-PAn-style map (hierarchy survival is total by design);
   - top-5 re-identification rate is at least top-1;
   - the suite is deterministic: scoring the same report twice yields a
     byte-identical record. *)
let deanon_key_range = 4096

let deanon_budget_check ~seed spec =
  let configs = Netgen.Emit.emit spec in
  let weak_seed = seed land (deanon_key_range - 1) in
  let strong_key =
    match
      Pii.Pan.key_of_string
        (Printf.sprintf "0x%08x5eed5eed" (seed land 0x7fffffff))
    with
    | Ok k -> k
    | Error m -> failwith m
  in
  let params key =
    { (wf_params ~seed) with pii = true; pii_key = Some key }
  in
  let attack name scores =
    List.find
      (fun (s : Redteam.Attack.score) -> String.equal s.attack name)
      scores
  in
  match Confmask.Workflow.run ~params:(params (Pii.Pan.key_of_int weak_seed)) configs with
  | Error m -> fail "workflow error: %s" m
  | Ok r -> (
      let scores = Confmask.Audit.of_report ~key_range:deanon_key_range r in
      let out_of_range (s : Redteam.Attack.score) =
        s.precision < 0.0 || s.precision > 1.0 || s.recall < 0.0
        || s.recall > 1.0
      in
      match List.find_opt out_of_range scores with
      | Some s ->
          fail "attack %s scored outside [0,1] (p=%f r=%f)" s.attack
            s.precision s.recall
      | None ->
          let kb = attack "key_bruteforce" scores in
          let ps = attack "prefix_structure" scores in
          let rid = attack "degree_reid" scores in
          let top5 =
            Option.value ~default:0.0 (List.assoc_opt "top5_rate" rid.detail)
          in
          if kb.recall <> 1.0 then
            fail "planted weak key (seed %d) not recovered (recall %f)"
              weak_seed kb.recall
          else if ps.recall <> 1.0 then
            fail "prefix hierarchy survival %f <> 1 under the Pan map"
              ps.recall
          else if top5 +. 1e-9 < rid.recall then
            fail "top-5 re-id rate %f below top-1 %f" top5 rid.recall
          else if
            Confmask.Audit.record_json scores
            <> Confmask.Audit.record_json
                 (Confmask.Audit.of_report ~key_range:deanon_key_range r)
          then Fail "attack suite is not deterministic on the same report"
          else
            (* Same net under a full-width key: the seed-range scan must
               come back empty-handed. *)
            match Confmask.Workflow.run ~params:(params strong_key) configs with
            | Error m -> fail "workflow error (64-bit key): %s" m
            | Ok r2 ->
                let kb2 =
                  attack "key_bruteforce"
                    (Confmask.Audit.of_report ~key_range:deanon_key_range r2)
                in
                if kb2.recall <> 0.0 then
                  fail "64-bit key recovered by a %d-seed scan (recall %f)"
                    deanon_key_range kb2.recall
                else Pass)

let deanon_budget =
  {
    name = "deanon_budget";
    doc =
      "red-team attack scores stay within the guaranteed budget: weak \
       keys recovered, 64-bit keys not, Pan hierarchy survival 1, \
       deterministic scoring";
    check = deanon_budget_check;
  }

(* -------------------- registry -------------------- *)

let all =
  [
    diff_fib;
    workflow;
    rename;
    scrub;
    reanon;
    policy_transfer;
    deanon_budget;
  ]

let find name =
  match List.find_opt (fun o -> o.name = name) all with
  | Some o -> Ok o
  | None ->
      Error
        (Printf.sprintf "unknown oracle %S (valid: %s)" name
           (String.concat ", " (List.map (fun o -> o.name) all)))

let run o ~seed spec =
  Telemetry.incr oracle_runs;
  try o.check ~seed spec with
  | Failure m -> Fail ("exception: " ^ m)
  | Invalid_argument m -> Fail ("invalid argument: " ^ m)
  | e -> Fail ("exception: " ^ Printexc.to_string e)
