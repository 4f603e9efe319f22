type policy =
  | Reachability of string * string
  | Waypoint of string * string * string
  | Isolation of string * string
  | Loadbalance of string * string * int

let to_string = function
  | Reachability (s, d) -> Printf.sprintf "reach(%s, %s)" s d
  | Waypoint (s, d, w) -> Printf.sprintf "waypoint(%s, %s, %s)" s d w
  | Isolation (s, d) -> Printf.sprintf "isolation(%s, %s)" s d
  | Loadbalance (s, d, n) -> Printf.sprintf "loadbalance(%s, %s, %d)" s d n

let endpoints = function
  | Reachability (s, d) | Waypoint (s, d, _) | Isolation (s, d)
  | Loadbalance (s, d, _) ->
      (s, d)

let nodes = function
  | Reachability (s, d) | Isolation (s, d) | Loadbalance (s, d, _) -> [ s; d ]
  | Waypoint (s, d, w) -> [ s; d; w ]

let map_names f = function
  | Reachability (s, d) -> Reachability (f s, f d)
  | Waypoint (s, d, w) -> Waypoint (f s, f d, f w)
  | Isolation (s, d) -> Isolation (f s, f d)
  | Loadbalance (s, d, n) -> Loadbalance (f s, f d, n)

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

let parse_policy line =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let s = trim line in
  match String.index_opt s '(' with
  | None -> err "expected KIND(ARGS): %s" s
  | Some i ->
      if String.length s = 0 || s.[String.length s - 1] <> ')' then
        err "missing closing parenthesis: %s" s
      else
        let kind = trim (String.sub s 0 i) in
        let args =
          String.sub s (i + 1) (String.length s - i - 2)
          |> String.split_on_char ',' |> List.map trim
        in
        let name what n =
          if valid_name n then Ok n else err "bad %s name %S" what n
        in
        let ( let* ) = Result.bind in
        let arity n =
          if List.length args = n then Ok ()
          else err "%s takes %d arguments, got %d" kind n (List.length args)
        in
        let two mk =
          let* () = arity 2 in
          let* s = name "source" (List.nth args 0) in
          let* d = name "destination" (List.nth args 1) in
          Ok (mk s d)
        in
        match String.lowercase_ascii kind with
        | "reach" | "reachability" -> two (fun s d -> Reachability (s, d))
        | "isolation" | "isolated" -> two (fun s d -> Isolation (s, d))
        | "waypoint" ->
            let* () = arity 3 in
            let* s = name "source" (List.nth args 0) in
            let* d = name "destination" (List.nth args 1) in
            let* w = name "waypoint" (List.nth args 2) in
            Ok (Waypoint (s, d, w))
        | "loadbalance" -> (
            let* () = arity 3 in
            let* s = name "source" (List.nth args 0) in
            let* d = name "destination" (List.nth args 1) in
            match int_of_string_opt (List.nth args 2) with
            | Some n when n >= 1 -> Ok (Loadbalance (s, d, n))
            | Some n -> err "loadbalance path count must be >= 1, got %d" n
            | None -> err "bad loadbalance path count %S" (List.nth args 2))
        | k -> err "unknown policy kind %S" k

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
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match J.parse text with
  | Error m -> err "bad JSON: %s" m
  | Ok (J.Arr items) ->
      let policy_of i item =
        let str k = Option.bind (J.member k item) J.str in
        let get k =
          match str k with
          | Some v when valid_name v -> Ok v
          | Some v -> err "policy %d: bad %s name %S" i k v
          | None -> err "policy %d: missing field %S" i k
        in
        let ( let* ) = Result.bind in
        let* s = get "src" in
        let* d = get "dst" in
        match str "type" with
        | Some ("reach" | "reachability") -> Ok (Reachability (s, d))
        | Some ("isolation" | "isolated") -> Ok (Isolation (s, d))
        | Some "waypoint" ->
            let* w = get "via" in
            Ok (Waypoint (s, d, w))
        | Some "loadbalance" -> (
            match Option.bind (J.member "paths" item) J.int with
            | Some n when n >= 1 -> Ok (Loadbalance (s, d, n))
            | Some n -> err "policy %d: paths must be >= 1, got %d" i n
            | None -> err "policy %d: missing integer field \"paths\"" i)
        | Some t -> err "policy %d: unknown type %S" i t
        | None -> err "policy %d: missing field \"type\"" i
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

let eval dp p =
  let s, d = endpoints p in
  let paths = Routing.Dataplane.paths dp ~src:s ~dst:d in
  match p with
  | Reachability _ ->
      { holds = paths <> []; witness = cap paths; counterexample = [] }
  | Isolation _ -> { holds = paths = []; witness = []; counterexample = cap paths }
  | Waypoint (_, _, w) ->
      let missing = List.filter (fun p -> not (List.mem w (interior p))) paths in
      if paths <> [] && missing = [] then
        { holds = true; witness = cap paths; counterexample = [] }
      else { holds = false; witness = []; counterexample = cap missing }
  | Loadbalance (_, _, n) ->
      if List.length paths >= n then
        { holds = true; witness = cap paths; counterexample = [] }
      else { holds = false; witness = []; counterexample = cap paths }

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

let differential ?(rename = fun n -> n) ~orig ~anon ~known policies =
  List.map
    (fun p ->
      let e_anon = eval anon (map_names rename p) in
      if List.for_all known (nodes p) then
        let e_orig = eval orig p in
        let e_verdict =
          match (e_orig.holds, e_anon.holds) with
          | true, true -> Holds_both
          | true, false -> Lost
          | false, true -> Introduced
          | false, false -> Holds_neither
        in
        { e_policy = p; e_verdict; e_orig = Some e_orig; e_anon }
      else { e_policy = p; e_verdict = Fake_only; e_orig = None; e_anon })
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

let summarize entries =
  let count v = List.length (List.filter (fun e -> e.e_verdict = v) entries) in
  let holds_both = count Holds_both and lost = count Lost in
  {
    total = List.length entries;
    holds_both;
    lost;
    introduced = count Introduced;
    holds_neither = count Holds_neither;
    fake_only = count Fake_only;
    kept_fraction =
      (if holds_both + lost = 0 then 1.0
       else float_of_int holds_both /. float_of_int (holds_both + lost));
  }
