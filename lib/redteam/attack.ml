type target = {
  orig_snapshot : Routing.Simulate.snapshot;
  orig_configs : Configlang.Ast.config list;
  anon_snapshot : Routing.Simulate.snapshot;
  anon_configs : Configlang.Ast.config list;
  fake_edges : (string * string) list option;
  correspondence : (string * string) list option;
  planted_key : Pii.Pan.key option;
  key_range : int;
}

let default_key_range = 1 lsl 16

type score = {
  attack : string;
  claims : int;
  hits : int;
  relevant : int;
  precision : float;
  recall : float;
  detail : (string * float) list;
}

type t = { name : string; doc : string; run : target -> score }

(* Precision/recall conventions: an adversary that claims nothing is
   vacuously precise, and with nothing to find any attack has vacuously
   full recall. *)
let score ~attack ~claims ~hits ~relevant ?(detail = []) () =
  let precision =
    if claims = 0 then 1.0 else float_of_int hits /. float_of_int claims
  in
  let recall =
    if relevant = 0 then 1.0 else float_of_int hits /. float_of_int relevant
  in
  { attack; claims; hits; relevant; precision; recall; detail }

let canonical_edge (u, v) = if String.compare u v <= 0 then (u, v) else (v, u)

(* Linear sorted-merge intersection size; both inputs are canonicalized
   and sort_uniq-ed first so the merge is O(F + P) after the sorts. *)
let edge_hits ~truth ~claimed =
  let truth = List.sort_uniq compare (List.map canonical_edge truth) in
  let claimed = List.sort_uniq compare (List.map canonical_edge claimed) in
  let rec merge acc = function
    | [], _ | _, [] -> acc
    | (t :: ts as l), (c :: cs as r) ->
        let cmp = compare t c in
        if cmp = 0 then merge (acc + 1) (ts, cs)
        else if cmp < 0 then merge acc (ts, r)
        else merge acc (l, cs)
  in
  merge 0 (truth, claimed)

let edge_score ~attack ~truth ~claimed ?detail () =
  let canon l = List.sort_uniq compare (List.map canonical_edge l) in
  let truth = canon truth and claimed = canon claimed in
  score ~attack ~claims:(List.length claimed) ~hits:(edge_hits ~truth ~claimed)
    ~relevant:(List.length truth) ?detail ()
