type policy =
  | Reachability of string * string
  | Waypoint of string * string * string
  | Isolation of string * string
  | Loadbalance of string * string * int
  | Path_length of string * string * int
  | Black_hole of string * string
  | Multipath_inconsistent of string * string
  | Routing_loop of string * string

(* ---- one description per family ---- *)

(* What a family takes after its two endpoints, and the JSON field that
   carries it. Counts are at least 1. *)
type _ arg = Pair : unit arg | Node : string -> string arg | Count : string -> int arg

type 'a family = {
  kind : string;  (* the text form's name and the JSON "type" *)
  synonyms : string list;  (* also accepted by both parsers *)
  arg : 'a arg;
  make : string -> string -> 'a -> policy;
}

type any_family = Family : 'a family -> any_family
type view = View : 'a family * string * string * 'a -> view

let pair kind synonyms make = { kind; synonyms; arg = Pair; make = (fun s d () -> make s d) }
let reach = pair "reach" [ "reachability" ] (fun s d -> Reachability (s, d))
let waypoint =
  { kind = "waypoint"; synonyms = []; arg = Node "via"; make = (fun s d w -> Waypoint (s, d, w)) }
let isolation = pair "isolation" [ "isolated" ] (fun s d -> Isolation (s, d))
let counted kind field make = { kind; synonyms = []; arg = Count field; make }
let loadbalance = counted "loadbalance" "paths" (fun s d n -> Loadbalance (s, d, n))
let pathlength = counted "pathlength" "length" (fun s d n -> Path_length (s, d, n))
let blackhole = pair "blackhole" [] (fun s d -> Black_hole (s, d))
let inconsistent = pair "inconsistent" [] (fun s d -> Multipath_inconsistent (s, d))
let loop = pair "loop" [] (fun s d -> Routing_loop (s, d))

let families =
  [
    Family reach; Family waypoint; Family isolation; Family loadbalance;
    Family pathlength; Family blackhole; Family inconsistent; Family loop;
  ]

let view = function
  | Reachability (s, d) -> View (reach, s, d, ())
  | Waypoint (s, d, w) -> View (waypoint, s, d, w)
  | Isolation (s, d) -> View (isolation, s, d, ())
  | Loadbalance (s, d, n) -> View (loadbalance, s, d, n)
  | Path_length (s, d, n) -> View (pathlength, s, d, n)
  | Black_hole (s, d) -> View (blackhole, s, d, ())
  | Multipath_inconsistent (s, d) -> View (inconsistent, s, d, ())
  | Routing_loop (s, d) -> View (loop, s, d, ())

(* The third argument as text and as its JSON field, if there is one. *)
let third : type a. a arg -> a -> (string * (string * Netcore.Json.t)) option =
 fun arg x ->
  match arg with
  | Pair -> None
  | Node field -> Some (x, (field, Netcore.Json.Str x))
  | Count field -> Some (string_of_int x, (field, Netcore.Json.Num (float_of_int x)))

let to_string p =
  match view p with
  | View (f, s, d, x) ->
      let rest = Option.to_list (Option.map fst (third f.arg x)) in
      Printf.sprintf "%s(%s)" f.kind (String.concat ", " (s :: d :: rest))

let to_json p =
  let module J = Netcore.Json in
  match view p with
  | View (f, s, d, x) ->
      J.Obj
        ([ ("type", J.Str f.kind); ("src", J.Str s); ("dst", J.Str d) ]
        @ Option.to_list (Option.map snd (third f.arg x)))

let endpoints = function
  | Reachability (s, d) | Waypoint (s, d, _) | Isolation (s, d) | Loadbalance (s, d, _)
  | Path_length (s, d, _) | Black_hole (s, d) | Multipath_inconsistent (s, d)
  | Routing_loop (s, d) ->
      (s, d)

let nodes p =
  let s, d = endpoints p in
  match p with Waypoint (_, _, w) -> [ s; d; w ] | _ -> [ s; d ]

let map_names (g : string -> string) p =
  let rename : type a. a arg -> a -> a =
   fun arg x -> match arg with Node _ -> g x | Pair | Count _ -> x
  in
  match view p with View (f, s, d, x) -> f.make (g s) (g d) (rename f.arg x)

(* ---- parsing ---- *)

let trim = String.trim

(* A node name: anything the text form cannot confuse with its own
   syntax. The emitters only produce [A-Za-z0-9_-]+ names, but configs
   from disk may carry more; only the delimiters are reserved. *)
let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | '(' | ')' | ',' | '#' -> false
         | c when c <= ' ' -> false
         | _ -> true)
       s

let err fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

(* The policy of the family named [kind], its arguments read by JSON
   field: ["src"], ["dst"], then the family's own. Both written forms
   end here; [keys] are the JSON form's fields, each of which must be
   one of those or ["type"]. *)
let build kind ~keys ~name ~number =
  let kind = String.lowercase_ascii kind in
  match List.find_opt (fun (Family f) -> f.kind = kind || List.mem kind f.synonyms) families with
  | None -> err "unknown policy kind %S" kind
  | Some (Family f) ->
      let own = match f.arg with Pair -> [] | Node field | Count field -> [ field ] in
      let* () =
        match List.find_opt (fun k -> not (List.mem k ("type" :: "src" :: "dst" :: own))) keys with
        | Some k -> err "unknown field %S" k
        | None -> Ok ()
      in
      let name field =
        let* n = name field in
        if valid_name n then Ok n else err "bad %s name %S" field n
      in
      let count field =
        match number field with
        | Some n when n >= 1 -> Ok n
        | Some n -> err "%s must be >= 1, got %d" field n
        | None -> err "missing or bad %s" field
      in
      let third : type a. a arg -> (a, string) result = function
        | Pair -> Ok ()
        | Node field -> name field
        | Count field -> count field
      in
      let* s = name "src" in
      let* d = name "dst" in
      let* x = third f.arg in
      Ok (f.make s d x)

let parse_policy line =
  let s = trim line in
  match String.index_opt s '(' with
  | None -> err "expected KIND(ARGS): %s" s
  | Some _ when s.[String.length s - 1] <> ')' -> err "missing closing parenthesis: %s" s
  | Some i ->
      let kind = trim (String.sub s 0 i) in
      let args =
        String.sub s (i + 1) (String.length s - i - 2)
        |> String.split_on_char ',' |> List.map trim
      in
      (* Positional: the fields in order. *)
      let arg field = List.nth_opt args (match field with "src" -> 0 | "dst" -> 1 | _ -> 2) in
      let name field = Option.to_result ~none:("missing " ^ field) (arg field) in
      let* p = build kind ~keys:[] ~name ~number:(fun f -> Option.bind (arg f) int_of_string_opt) in
      let arity = match view p with View (f, _, _, x) -> if third f.arg x = None then 2 else 3 in
      if List.length args = arity then Ok p
      else err "%s takes %d arguments, got %d" kind arity (List.length args)

let parse_text text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        if trim line = "" then go (n + 1) acc rest
        else
          match parse_policy line with
          | Ok p -> go (n + 1) (p :: acc) rest
          | Error m -> Error (Printf.sprintf "line %d: %s" n m))
  in
  go 1 [] lines

let parse_json text =
  let module J = Netcore.Json in
  match J.parse text with
  | Error m -> err "bad JSON: %s" m
  | Ok (J.Arr items) ->
      let policy_of i item =
        let str k = Option.bind (J.member k item) J.str in
        let name k = Option.to_result ~none:(Printf.sprintf "missing field %S" k) (str k) in
        let number k = Option.bind (J.member k item) J.int in
        let keys = match item with J.Obj kvs -> List.map fst kvs | _ -> [] in
        Result.map_error (Printf.sprintf "policy %d: %s" i)
          (match str "type" with
          | None -> err "missing field \"type\""
          | Some t -> build t ~keys ~name ~number)
      in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match policy_of i item with
            | Ok p -> go (i + 1) (p :: acc) rest
            | Error _ as e -> e)
      in
      go 0 [] items
  | Ok _ -> err "a JSON policy file must be an array of policy objects"

let parse text =
  let rec first i =
    if i >= String.length text then None
    else if text.[i] <= ' ' then first (i + 1)
    else Some text.[i]
  in
  match first 0 with Some '[' -> parse_json text | _ -> parse_text text

(* ---- evaluation ---- *)

type outcome = {
  holds : bool;
  witness : Routing.Dataplane.path list;
  counterexample : Routing.Dataplane.path list;
}

let max_evidence = 8

let cap paths =
  List.filteri (fun i _ -> i < max_evidence) paths

(* Interior routers of [h_s; r_1; ...; r_n; h_d], in one pass. *)
let interior = function
  | [] -> []
  | _ :: hops ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: rest -> x :: drop_last rest
      in
      drop_last hops

let no_trace =
  { Routing.Dataplane.delivered = []; dropped = []; filtered = []; looped = []; truncated = false }

let eval_trace (t : Routing.Dataplane.trace) p =
  let paths = t.delivered and lossy = t.dropped @ t.filtered in
  let verdict holds ~witness ~counterexample =
    if holds then { holds; witness = cap witness; counterexample = [] }
    else { holds; witness = []; counterexample = cap counterexample }
  in
  match p with
  | Reachability _ -> verdict (paths <> []) ~witness:paths ~counterexample:[]
  | Isolation _ -> verdict (paths = []) ~witness:[] ~counterexample:paths
  | Waypoint (_, _, w) ->
      let missing = List.filter (fun p -> not (List.mem w (interior p))) paths in
      verdict (paths <> [] && missing = []) ~witness:paths ~counterexample:missing
  | Loadbalance (_, _, n) ->
      verdict (List.length paths >= n) ~witness:paths ~counterexample:paths
  | Path_length (_, _, n) ->
      (* [n] counts routers: a path's two host endpoints are not hops. *)
      let off = List.filter (fun p -> List.length p - 2 <> n) paths in
      verdict (paths <> [] && off = []) ~witness:paths ~counterexample:off
  | Black_hole _ -> verdict (lossy <> []) ~witness:lossy ~counterexample:paths
  | Multipath_inconsistent _ -> (
      match paths with
      | delivered :: _ when lossy <> [] ->
          verdict true ~witness:(delivered :: lossy) ~counterexample:[]
      (* One of the two lists is empty: the other shows the consistent
         behaviour. *)
      | _ -> verdict false ~witness:[] ~counterexample:(paths @ lossy))
  | Routing_loop _ -> verdict (t.looped <> []) ~witness:t.looped ~counterexample:paths

let eval dp p =
  let src, dst = endpoints p in
  eval_trace (Option.value ~default:no_trace (Routing.Dataplane.trace dp ~src ~dst)) p

(* ---- differential verification ---- *)

type verdict = Holds_both | Lost | Introduced | Holds_neither | Fake_only

let verdict_to_string = function
  | Holds_both -> "holds_both"
  | Lost -> "lost"
  | Introduced -> "introduced"
  | Holds_neither -> "holds_neither"
  | Fake_only -> "fake_only"

type entry = {
  e_policy : policy;
  e_verdict : verdict;
  e_orig : outcome option;
  e_anon : outcome;
}

let judge ~orig ~anon =
  match orig with
  | None -> Fake_only
  | Some o -> (
      match (o.holds, anon.holds) with
      | true, true -> Holds_both
      | true, false -> Lost
      | false, true -> Introduced
      | false, false -> Holds_neither)

let differential ?(rename = fun n -> n) ~orig ~anon ~known policies =
  List.map
    (fun p ->
      let e_anon = eval anon (map_names rename p) in
      let e_orig = if List.for_all known (nodes p) then Some (eval orig p) else None in
      { e_policy = p; e_verdict = judge ~orig:e_orig ~anon:e_anon; e_orig; e_anon })
    policies

type summary = {
  total : int;
  holds_both : int;
  lost : int;
  introduced : int;
  holds_neither : int;
  fake_only : int;
  kept_fraction : float;
}

let summary_of_counts count =
  let holds_both = count Holds_both and lost = count Lost in
  let introduced = count Introduced and holds_neither = count Holds_neither in
  let fake_only = count Fake_only in
  {
    total = holds_both + lost + introduced + holds_neither + fake_only;
    holds_both;
    lost;
    introduced;
    holds_neither;
    fake_only;
    kept_fraction =
      (if holds_both + lost = 0 then 1.0
       else float_of_int holds_both /. float_of_int (holds_both + lost));
  }

let summarize entries =
  summary_of_counts (fun v -> List.length (List.filter (fun e -> e.e_verdict = v) entries))
