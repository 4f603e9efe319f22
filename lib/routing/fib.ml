open Netcore

type proto = Connected | Static | Ospf | Rip | Eigrp | Ebgp | Ibgp

let admin_distance = function
  | Connected -> 0
  | Static -> 1
  | Ebgp -> 20
  | Eigrp -> 90
  | Ospf -> 110
  | Rip -> 120
  | Ibgp -> 200

let proto_to_string = function
  | Connected -> "connected"
  | Static -> "static"
  | Ospf -> "ospf"
  | Rip -> "rip"
  | Eigrp -> "eigrp"
  | Ebgp -> "ebgp"
  | Ibgp -> "ibgp"

type nexthop = { nh_router : string; nh_iface : string }

type route = {
  rt_prefix : Prefix.t;
  rt_proto : proto;
  rt_metric : int;
  rt_nexthops : nexthop list;
}

(* A FIB is a sorted, duplicate-free array of routes, ordered by prefix.
   The representation is canonical: equal route contents give equal
   values under polymorphic comparison no matter how the FIB was built —
   unlike a balanced tree, whose shape remembers insertion order. The
   engine's structural reuse gates, the crucible's [fibs_equal] oracle
   and the disk cache's marshaled states all lean on that. Updates are
   persistent (copy-on-write), matching the map they replaced. *)
type t = route array

let empty = [||]

let merge_nexthops a b =
  List.sort_uniq
    (fun x y ->
      match String.compare x.nh_router y.nh_router with
      | 0 -> String.compare x.nh_iface y.nh_iface
      | c -> c)
    (a @ b)

let better a b =
  (* Lower administrative distance wins; within a protocol, lower metric. *)
  match Int.compare (admin_distance a.rt_proto) (admin_distance b.rt_proto) with
  | 0 -> Int.compare a.rt_metric b.rt_metric
  | c -> c

(* [merge_into existing r] is the installed result of offering candidate
   [r] while [existing] holds the slot — the single merge rule every
   construction path below shares. The result of folding a slot's
   candidates through it does not depend on their order. Administrative
   distances are pairwise distinct, so across protocols it is a strict
   minimum. Within one protocol it is a minimum by metric that merges
   the next hops of ties with [sort_uniq], which is associative and
   commutative. So a base FIB can start from a router's other candidates
   and take its OSPF selection afterwards. *)
let merge_into existing r =
  match better r existing with
  | c when c < 0 -> r
  | 0 ->
      {
        existing with
        rt_nexthops = merge_nexthops existing.rt_nexthops r.rt_nexthops;
      }
  | _ -> existing

(* The initial value of arrays every slot of which is written before
   the array is returned. *)
let placeholder =
  { rt_prefix = Prefix.v Ipv4.zero 0; rt_proto = Connected; rt_metric = 0; rt_nexthops = [] }

let add_candidate r t =
  let n = Array.length t in
  let rec go lo hi =
    if lo >= hi then begin
      let out = Array.make (n + 1) r in
      Array.blit t 0 out 0 lo;
      Array.blit t lo out (lo + 1) (n - lo);
      out
    end
    else
      let mid = (lo + hi) / 2 in
      let c = Prefix.compare r.rt_prefix t.(mid).rt_prefix in
      if c = 0 then begin
        let out = Array.copy t in
        out.(mid) <- merge_into t.(mid) r;
        out
      end
      else if c < 0 then go lo mid
      else go (mid + 1) hi
  in
  go 0 n

(* Bulk construction: exactly [List.fold_left (fun t r -> add_candidate
   r t) empty cs], but one sort and a linear merge instead of a
   persistent insert per candidate. Sorting boxed routes spends its time
   on cache misses, so each candidate is condensed to one int —
   [network * 33 + len] orders prefixes exactly like [Prefix.compare],
   and the arrival index in the low bits makes the sort stable, keeping
   same-prefix candidates in arrival order for [merge_into] just as the
   incremental adds would. *)
let idx_bits = 24

(* Monomorphic in-place int sort (middle-pivot quicksort with insertion
   sort below 16): the comparator indirection of [Array.sort] costs more
   than the comparisons themselves on int keys. *)
let sort_ints (a : int array) =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec qsort lo hi =
    if hi - lo > 16 then begin
      let p = a.((lo + hi) / 2) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while a.(!i) < p do
          incr i
        done;
        while a.(!j) > p do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo (!j + 1);
      qsort !i hi
    end
    else
      for i = lo + 1 to hi - 1 do
        let v = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > v do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done
  in
  qsort 0 (Array.length a)

let of_candidates cs =
  match cs with
  | [] -> empty
  | first :: _ ->
      let arr = Array.of_list cs in
      let n = Array.length arr in
      if n >= 1 lsl idx_bits then
        (* Unreachably many candidates for one router; stay correct. *)
        List.fold_left (fun t r -> add_candidate r t) empty cs
      else begin
        let keys = Array.make n 0 in
        for i = 0 to n - 1 do
          let p = arr.(i).rt_prefix in
          keys.(i) <-
            (((Ipv4.to_int (Prefix.network p) * 33) + Prefix.length p)
            lsl idx_bits)
            lor i
        done;
        sort_ints keys;
        let mask = (1 lsl idx_bits) - 1 in
        let distinct = ref 1 in
        for i = 1 to n - 1 do
          if keys.(i) lsr idx_bits <> keys.(i - 1) lsr idx_bits then
            incr distinct
        done;
        let out = Array.make !distinct first in
        let j = ref 0 in
        let cur = ref arr.(keys.(0) land mask) in
        for i = 1 to n - 1 do
          let r = arr.(keys.(i) land mask) in
          if keys.(i) lsr idx_bits = keys.(i - 1) lsr idx_bits then
            cur := merge_into !cur r
          else begin
            out.(!j) <- !cur;
            incr j;
            cur := r
          end
        done;
        out.(!j) <- !cur;
        out
      end

(* [fill others n ~key ~hit ~route]: [others] with every hit candidate
   added, in one count pass that allocates nothing and one fill of an
   array of the exact size. The candidates come in strictly ascending
   prefix order, so both passes are a linear merge with [others]. *)
let fill others n ~key ~hit ~route =
  let no = Array.length others in
  let hits = ref 0 and extra = ref 0 and j = ref 0 in
  for i = 0 to n - 1 do
    let p = key i in
    if i > 0 && Prefix.compare (key (i - 1)) p >= 0 then
      invalid_arg "Fib.fill: keys not strictly ascending";
    if hit i then begin
      incr hits;
      while !j < no && Prefix.compare others.(!j).rt_prefix p < 0 do
        incr j
      done;
      if not (!j < no && Prefix.equal others.(!j).rt_prefix p) then incr extra
    end
  done;
  if !hits = 0 then others
  else begin
    let out = Array.make (no + !extra) placeholder in
    let j = ref 0 and k = ref 0 in
    for i = 0 to n - 1 do
      if hit i then begin
        let p = key i in
        while !j < no && Prefix.compare others.(!j).rt_prefix p < 0 do
          out.(!k) <- others.(!j);
          incr j;
          incr k
        done;
        let r = route i in
        if !j < no && Prefix.equal others.(!j).rt_prefix p then begin
          out.(!k) <- merge_into others.(!j) r;
          incr j
        end
        else out.(!k) <- r;
        incr k
      end
    done;
    Array.blit others !j out !k (no - !j);
    out
  end

(* First slot whose prefix is not below [p], searching [lo, hi). *)
let lower_bound t p lo hi =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Prefix.compare t.(mid).rt_prefix p < 0 then go (mid + 1) hi
      else go lo mid
  in
  go lo hi

(* [replace t changes]: each listed slot is rebuilt from its candidates
   by the [merge_into] fold [of_candidates] runs, or dropped when there
   are none; the untouched runs between listed prefixes are copied in
   blocks. When no rebuilt slot differs from [t]'s, [t] itself is the
   answer. *)
let replace t changes =
  let slots =
    List.map
      (fun (p, cs) ->
        (p, match cs with [] -> None | r :: tl -> Some (List.fold_left merge_into r tl)))
      changes
  in
  let n = Array.length t in
  let unchanged (p, slot) =
    let at = lower_bound t p 0 n in
    let cur = if at < n && Prefix.equal t.(at).rt_prefix p then Some t.(at) else None in
    match (cur, slot) with
    | None, None -> true
    | Some a, Some b -> a == b || a = b
    | _ -> false
  in
  if List.for_all unchanged slots then t
  else
  (* Positions in [t], ascending like [changes], and the output length. *)
  let _, placed, len =
    List.fold_left
      (fun (lo, acc, len) (p, slot) ->
        let at = lower_bound t p lo n in
        let present = at < n && Prefix.equal t.(at).rt_prefix p in
        let len = len - Bool.to_int present + Bool.to_int (Option.is_some slot) in
        ((if present then at + 1 else at), (at, present, slot) :: acc, len))
      (0, [], n) slots
  in
  let placed = List.rev placed in
  if len = 0 then empty
  else
    let out = Array.make len placeholder in
    let i, k =
      List.fold_left
        (fun (i, k) (at, present, slot) ->
          Array.blit t i out k (at - i);
          let k = k + (at - i) in
          let i = if present then at + 1 else at in
          match slot with
          | Some r ->
              out.(k) <- r;
              (i, k + 1)
          | None -> (i, k))
        (0, 0) placed
    in
    Array.blit t i out k (n - i);
    out

let changed_prefixes a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j acc =
    if i = na then List.rev_append acc (List.init (nb - j) (fun k -> b.(j + k).rt_prefix))
    else if j = nb then
      List.rev_append acc (List.init (na - i) (fun k -> a.(i + k).rt_prefix))
    else
      let c = Prefix.compare a.(i).rt_prefix b.(j).rt_prefix in
      if c < 0 then go (i + 1) j (a.(i).rt_prefix :: acc)
      else if c > 0 then go i (j + 1) (b.(j).rt_prefix :: acc)
      else if a.(i) == b.(j) || a.(i) = b.(j) then go (i + 1) (j + 1) acc
      else go (i + 1) (j + 1) (a.(i).rt_prefix :: acc)
  in
  go 0 0 []

let find t p =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Prefix.compare p t.(mid).rt_prefix in
      if c = 0 then Some t.(mid) else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t)

let lookup t addr =
  (* Longest-prefix match by direct probing: the /len prefix containing
     [addr] is a single canonical key, so try each length from most to
     least specific. 33 logarithmic probes beat a linear scan on any
     realistically sized FIB. *)
  let rec go len =
    if len < 0 then None
    else
      match find t (Prefix.v addr len) with
      | Some r -> Some r
      | None -> go (len - 1)
  in
  go 32

(* ---- probe accelerator ----

   Hot extraction paths answer thousands of longest-prefix matches
   against the same FIB. A probe condenses each slot's prefix to the same
   int key [of_candidates] sorts by, so a probe search is a binary search
   over unboxed ints — no [Prefix.compare] calls — and the LPM sweep only
   tries the prefix lengths actually present (usually two or three), most
   specific first. A [dest] holds the key of every prefix containing one
   address, computed once per destination and reused against every FIB. *)
type probe = { pb_keys : int array; pb_routes : t; pb_lens : int list }
type dest = int array

let probe_key p = (Ipv4.to_int (Prefix.network p) * 33) + Prefix.length p

let probe t =
  let n = Array.length t in
  let keys = Array.make n 0 in
  let seen = Array.make 33 false in
  for i = 0 to n - 1 do
    let p = t.(i).rt_prefix in
    keys.(i) <- probe_key p;
    seen.(Prefix.length p) <- true
  done;
  let lens = ref [] in
  for l = 0 to 32 do
    if seen.(l) then lens := l :: !lens
  done;
  { pb_keys = keys; pb_routes = t; pb_lens = !lens }

let dest addr = Array.init 33 (fun len -> probe_key (Prefix.v addr len))

let probe_find pb k =
  let keys = pb.pb_keys in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let km = Array.unsafe_get keys mid in
      if km = k then Some pb.pb_routes.(mid)
      else if k < km then go lo mid
      else go (mid + 1) hi
  in
  go 0 (Array.length keys)

let probe_lpm pb (d : dest) =
  let rec go = function
    | [] -> None
    | l :: tl -> (
        match probe_find pb (Array.unsafe_get d l) with
        | Some r -> Some r
        | None -> go tl)
  in
  go pb.pb_lens

let routes t = Array.to_list t

let nexthop_names r =
  List.sort_uniq String.compare (List.map (fun nh -> nh.nh_router) r.rt_nexthops)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%s [%s/%d] via %s@,"
        (Prefix.to_string r.rt_prefix)
        (proto_to_string r.rt_proto) r.rt_metric
        (String.concat ", " (nexthop_names r)))
    (routes t);
  Format.fprintf ppf "@]"
