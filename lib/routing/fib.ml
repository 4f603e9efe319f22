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

type body = { proto : proto; metric : int; nexthops : nexthop list }

(* A FIB is dictionary-encoded: the sorted probe keys of its prefixes,
   the prefix lengths they hold as a bitmask, one index per slot into
   the FIB's distinct bodies, and those bodies in order of first
   occurrence by ascending key. No slot owns a heap block, and routers
   with equal key sets can share one key array.

   The representation is canonical: equal route contents give equal
   values under polymorphic comparison no matter how the FIB was built —
   the keys are sorted, the bodies structurally distinct and numbered in
   slot order. The engine's structural reuse gates, the crucible's
   [fibs_equal] oracle and the disk cache's marshaled states all lean on
   that. Updates are persistent (copy-on-write). *)
type t = {
  keys : int array;
  lens : int;
  slots : int array;
  bodies : body array;
}

let empty = { keys = [||]; lens = 0; slots = [||]; bodies = [||] }

(* [network * 33 + len] orders prefixes exactly like [Prefix.compare]. *)
let key p = (Ipv4.to_int (Prefix.network p) * 33) + Prefix.length p
let prefix_of_key k = Prefix.v (Ipv4.of_int (k / 33)) (k mod 33)
let lens_of (keys : int array) =
  let m = ref 0 in
  for i = 0 to Array.length keys - 1 do
    m := !m lor (1 lsl (keys.(i) mod 33))
  done;
  !m

(* [Array.blit] on ints: the generic primitive stores through the write
   barrier into a major-heap array, where this loop stores plain ints. *)
let blit_ints (src : int array) si (dst : int array) di n =
  for x = 0 to n - 1 do
    dst.(di + x) <- src.(si + x)
  done
let body_of_route r =
  { proto = r.rt_proto; metric = r.rt_metric; nexthops = r.rt_nexthops }

let route_of p b =
  { rt_prefix = p; rt_proto = b.proto; rt_metric = b.metric; rt_nexthops = b.nexthops }

let merge_nexthops a b =
  List.sort_uniq
    (fun x y ->
      match String.compare x.nh_router y.nh_router with
      | 0 -> String.compare x.nh_iface y.nh_iface
      | c -> c)
    (a @ b)

let better a b =
  (* Lower administrative distance wins; within a protocol, lower metric. *)
  match Int.compare (admin_distance a.proto) (admin_distance b.proto) with
  | 0 -> Int.compare a.metric b.metric
  | c -> c

(* [merge_into existing b] is the installed body after offering candidate
   [b] while [existing] holds the slot — the single merge rule every
   construction path below shares. The result of folding a slot's
   candidates through it does not depend on their order. Administrative
   distances are pairwise distinct, so across protocols it is a strict
   minimum. Within one protocol it is a minimum by metric that merges
   the next hops of ties with [sort_uniq], which is associative and
   commutative. So a base FIB can start from a router's other candidates
   and take its OSPF selection afterwards. *)
let merge_into existing b =
  match better b existing with
  | c when c < 0 -> b
  | 0 -> { existing with nexthops = merge_nexthops existing.nexthops b.nexthops }
  | _ -> existing

let placeholder = { proto = Connected; metric = 0; nexthops = [] }

(* Structural equality with the int fields compared inline first. *)
let same a b =
  a == b || (a.metric = b.metric && a.proto == b.proto && a.nexthops = b.nexthops)

(* Index of key [k] in the sorted [keys], or -1. The annotations keep
   the comparisons on unboxed ints rather than polymorphic compare. *)
let search (keys : int array) (k : int) =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let km = Array.unsafe_get keys mid in
      if km = k then mid else if k < km then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length keys)

(* First position in [lo, hi) whose key is not below [k]. *)
let lower_bound (keys : int array) (k : int) lo hi =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if keys.(mid) < k then go (mid + 1) hi else go lo mid
  in
  go lo hi

(* Bodies numbered in order of first use, structurally deduplicated. *)
type dict = { tbl : (body, int) Hashtbl.t; mutable rev : body list }

let dict () = { tbl = Hashtbl.create 16; rev = [] }

let intern d b =
  match Hashtbl.find_opt d.tbl b with
  | Some i -> i
  | None ->
      let i = Hashtbl.length d.tbl in
      Hashtbl.add d.tbl b i;
      d.rev <- b :: d.rev;
      i

let dict_bodies d = Array.of_list (List.rev d.rev)

(* [extend bodies news]: the index of each of [news] in [bodies]
   extended by the ones it lacks, and that extension. [bodies] is
   duplicate-free, so the extension is too. *)
let extend bodies news =
  let n = ref (Array.length bodies) and added = ref [] in
  let tbl = Hashtbl.create (2 * (!n + 1)) in
  Array.iteri (fun i b -> Hashtbl.replace tbl b i) bodies;
  let index b =
    match Hashtbl.find_opt tbl b with
    | Some i -> i
    | None ->
        let i = !n in
        incr n;
        Hashtbl.add tbl b i;
        added := b :: !added;
        i
  in
  let idx = List.map index news in
  let pool =
    if !added = [] then bodies else Array.append bodies (Array.of_list (List.rev !added))
  in
  (idx, pool)

(* The FIB of [keys] whose slot [i] holds [pool.(src.(i))], [pool]
   duplicate-free: the bodies renumbered in first-occurrence order and
   the unused ones dropped. [src] becomes the slot array; [pool] itself
   is kept when its numbering is already that. *)
let encode keys lens src pool =
  let remap = Array.make (Array.length pool) (-1) in
  let nb = ref 0 in
  for i = 0 to Array.length src - 1 do
    let b = src.(i) in
    let j = remap.(b) in
    if j >= 0 then src.(i) <- j
    else begin
      remap.(b) <- !nb;
      src.(i) <- !nb;
      incr nb
    end
  done;
  let identity = ref (!nb = Array.length pool) in
  Array.iteri (fun b j -> if j <> b then identity := false) remap;
  let bodies =
    if !identity then pool
    else begin
      let out = Array.make !nb placeholder in
      Array.iteri (fun b j -> if j >= 0 then out.(j) <- pool.(b)) remap;
      out
    end
  in
  { keys; lens; slots = src; bodies }

(* [fill others keys cands pick]: [others] with every picked candidate
   added, in one count pass that allocates nothing and one fill of
   arrays of the exact size. The candidates come in strictly ascending
   key order, so both passes are a linear merge with [others]. A body is
   interned once per distinct [others] body and per distinct candidate
   index, not once per slot. *)
let fill others keys cands pick =
  let n = Array.length keys in
  let ok = others.keys in
  let no = Array.length ok in
  let hits = ref 0 and extra = ref 0 and covered = ref 0 and j = ref 0 in
  for i = 0 to n - 1 do
    let k = keys.(i) in
    if i > 0 && keys.(i - 1) >= k then invalid_arg "Fib.fill: keys not strictly ascending";
    while !j < no && ok.(!j) < k do
      incr j
    done;
    let held = !j < no && ok.(!j) = k in
    if pick i >= 0 then begin
      incr hits;
      if not held then incr extra
    end;
    if held || pick i >= 0 then incr covered
  done;
  if !hits = 0 then others
  else begin
    let len = no + !extra in
    let out_keys =
      if len = n && !covered = n then keys else if !extra = 0 then ok else Array.make len 0
    in
    let write_keys = out_keys != keys && out_keys != ok in
    let slots = Array.make len 0 in
    let d = dict () in
    (* [pool.(b)]'s index in [d], interned on first use. *)
    let via pool =
      let memo = Array.make (Array.length pool) (-1) in
      fun b ->
        if memo.(b) < 0 then memo.(b) <- intern d pool.(b);
        memo.(b)
    in
    let of_others = via others.bodies and of_cand = via cands in
    let k = ref 0 and j = ref 0 in
    let emit key slot =
      if write_keys then out_keys.(!k) <- key;
      slots.(!k) <- slot;
      incr k
    in
    for i = 0 to n - 1 do
      let c = pick i in
      if c >= 0 then begin
        let key = keys.(i) in
        while !j < no && ok.(!j) < key do
          emit ok.(!j) (of_others others.slots.(!j));
          incr j
        done;
        if !j < no && ok.(!j) = key then begin
          let ob = others.slots.(!j) in
          let held = others.bodies.(ob) and cand = cands.(c) in
          let m = merge_into held cand in
          emit key
            (if m == held then of_others ob else if m == cand then of_cand c else intern d m);
          incr j
        end
        else emit key (of_cand c)
      end
    done;
    while !j < no do
      emit ok.(!j) (of_others others.slots.(!j));
      incr j
    done;
    {
      keys = out_keys;
      lens = (if out_keys == ok then others.lens else lens_of out_keys);
      slots;
      bodies = dict_bodies d;
    }
  end

(* [replace t changes]: each listed slot is rebuilt from its candidates
   by the [merge_into] fold [of_candidates] runs, or dropped when there
   are none; the untouched runs between listed keys are copied in
   blocks. When no rebuilt slot differs from [t]'s, [t] itself is the
   answer; when no slot is added or dropped, [t]'s key array is kept,
   and when the result holds exactly [hint]'s keys, [hint] is. *)
let replace t ~keys:hint changes =
  let changes =
    List.map
      (fun (p, cs) ->
        (key p, match cs with [] -> None | b :: tl -> Some (List.fold_left merge_into b tl)))
      changes
  in
  let n = Array.length t.keys in
  let unchanged (k, slot) =
    match (search t.keys k, slot) with
    | -1, None -> true
    | at, Some b when at >= 0 ->
        same t.bodies.(t.slots.(at)) b
    | _ -> false
  in
  if List.for_all unchanged changes then t
  else
    let idx, pool = extend t.bodies (List.filter_map snd changes) in
    (* Positions in [t], ascending like [changes], each new slot's body
       index, and the output length. *)
    let _, placed, len, _ =
      List.fold_left
        (fun (lo, acc, len, idx) (k, slot) ->
          let at = lower_bound t.keys k lo n in
          let present = at < n && t.keys.(at) = k in
          let len = len - Bool.to_int present + Bool.to_int (Option.is_some slot) in
          let bi, idx =
            match (slot, idx) with Some _, i :: tl -> (i, tl) | _ -> (-1, idx)
          in
          ((if present then at + 1 else at), (at, present, k, bi) :: acc, len, idx))
        (0, [], n, idx) changes
    in
    let placed = List.rev placed in
    if len = 0 then empty
    else if len = n && List.for_all (fun (_, present, _, bi) -> present = (bi >= 0)) placed
    then begin
      let src = Array.copy t.slots in
      List.iter (fun (at, present, _, bi) -> if present then src.(at) <- bi) placed;
      encode t.keys t.lens src pool
    end
    else begin
      (* Whether the result's keys are [hint]'s, read off [placed]
         without building them. *)
      let shared =
        Array.length hint = len
        &&
        let ok = ref true and i = ref 0 and h = ref 0 in
        let run upto =
          while !ok && !i < upto do
            if t.keys.(!i) <> hint.(!h) then ok := false;
            incr i;
            incr h
          done
        in
        List.iter
          (fun (at, present, key, bi) ->
            run at;
            if present then incr i;
            if !ok && bi >= 0 then begin
              if hint.(!h) <> key then ok := false;
              incr h
            end)
          placed;
        run n;
        !ok
      in
      let keys = if shared then hint else Array.make len 0 and src = Array.make len 0 in
      let i, k =
        List.fold_left
          (fun (i, k) (at, present, key, bi) ->
            if not shared then blit_ints t.keys i keys k (at - i);
            blit_ints t.slots i src k (at - i);
            let k = k + (at - i) in
            let i = if present then at + 1 else at in
            if bi >= 0 then begin
              if not shared then keys.(k) <- key;
              src.(k) <- bi;
              (i, k + 1)
            end
            else (i, k))
          (0, 0) placed
      in
      if not shared then blit_ints t.keys i keys k (n - i);
      blit_ints t.slots i src k (n - i);
      (* Adding slots only sets length bits; dropping one may clear one. *)
      let lens =
        if List.exists (fun (_, present, _, bi) -> present && bi < 0) placed then lens_of keys
        else
          List.fold_left
            (fun m (_, _, key, bi) -> if bi >= 0 then m lor (1 lsl (key mod 33)) else m)
            t.lens placed
      in
      encode keys lens src pool
    end

(* One [replace] for all of [cs]: grouped by prefix in arrival order,
   each group behind the slot's held body. *)
let add_candidates cs t =
  let groups =
    List.stable_sort (fun (k, _) (k', _) -> Int.compare k k')
      (List.map (fun r -> (key r.rt_prefix, r)) cs)
    |> List.fold_left
         (fun acc (k, r) ->
           match acc with
           | (k', p, bs) :: tl when k = k' -> (k, p, body_of_route r :: bs) :: tl
           | _ -> (k, r.rt_prefix, [ body_of_route r ]) :: acc)
         []
  in
  if groups = [] then t
  else
    replace t ~keys:t.keys
      (List.rev_map
         (fun (k, p, bs) ->
           let held = match search t.keys k with -1 -> [] | i -> [ t.bodies.(t.slots.(i)) ] in
           (p, held @ List.rev bs))
         groups)

let add_candidate r t = add_candidates [ r ] t

(* Bulk construction: exactly [List.fold_left (fun t r -> add_candidate
   r t) empty cs], but one sort and a linear merge instead of a
   persistent insert per candidate. Each candidate is condensed to one
   int — its key, with the arrival index in the low bits so the sort is
   stable, keeping same-prefix candidates in arrival order for
   [merge_into] just as the incremental adds would. *)
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
  | _ ->
      let arr = Array.of_list cs in
      let n = Array.length arr in
      if n >= 1 lsl idx_bits then
        (* Unreachably many candidates for one router; stay correct. *)
        add_candidates cs empty
      else begin
        let sorted = Array.init n (fun i -> (key arr.(i).rt_prefix lsl idx_bits) lor i) in
        sort_ints sorted;
        let mask = (1 lsl idx_bits) - 1 in
        let distinct = ref 1 in
        for i = 1 to n - 1 do
          if sorted.(i) lsr idx_bits <> sorted.(i - 1) lsr idx_bits then incr distinct
        done;
        let keys = Array.make !distinct 0 and slots = Array.make !distinct 0 in
        let d = dict () in
        let j = ref 0 in
        let cur = ref (body_of_route arr.(sorted.(0) land mask)) in
        let close i =
          keys.(!j) <- sorted.(i) lsr idx_bits;
          slots.(!j) <- intern d !cur;
          incr j
        in
        for i = 1 to n - 1 do
          let b = body_of_route arr.(sorted.(i) land mask) in
          if sorted.(i) lsr idx_bits = sorted.(i - 1) lsr idx_bits then
            cur := merge_into !cur b
          else begin
            close (i - 1);
            cur := b
          end
        done;
        close (n - 1);
        { keys; lens = lens_of keys; slots; bodies = dict_bodies d }
      end

let changed_prefixes a b =
  let na = Array.length a.keys and nb = Array.length b.keys in
  let body t i = t.bodies.(t.slots.(i)) in
  let rest t from n acc =
    List.rev_append acc (List.init (n - from) (fun x -> prefix_of_key t.keys.(from + x)))
  in
  let rec go i j acc =
    if i = na then rest b j nb acc
    else if j = nb then rest a i na acc
    else
      let ka = a.keys.(i) and kb = b.keys.(j) in
      if ka < kb then go (i + 1) j (prefix_of_key ka :: acc)
      else if ka > kb then go i (j + 1) (prefix_of_key kb :: acc)
      else if same (body a i) (body b j) then go (i + 1) (j + 1) acc
      else go (i + 1) (j + 1) (prefix_of_key ka :: acc)
  in
  go 0 0 []

let body_index t p =
  match search t.keys (key p) with -1 -> -1 | i -> t.slots.(i)

let body t i = t.bodies.(i)
let map_bodies f t = Array.map f t.bodies

let find t p =
  match body_index t p with -1 -> None | i -> Some (route_of p t.bodies.(i))

let lookup t addr =
  (* Longest-prefix match by direct probing: the /len prefix containing
     [addr] is a single canonical key, so try each length the FIB holds
     from most to least specific. *)
  let rec go len =
    if len < 0 then None
    else if t.lens land (1 lsl len) = 0 then go (len - 1)
    else
      let p = Prefix.v addr len in
      match find t p with Some r -> Some r | None -> go (len - 1)
  in
  go 32

(* A [dest] holds the key of every prefix containing one address,
   computed once per destination and reused against every FIB, so a
   probe is a binary search over unboxed ints at each length the FIB
   holds (usually two or three), most specific first. *)
type dest = int array

let dest addr = Array.init 33 (fun len -> key (Prefix.v addr len))

let probe_lpm t (d : dest) =
  let rec go len =
    if len < 0 then -1
    else if t.lens land (1 lsl len) = 0 then go (len - 1)
    else
      match search t.keys (Array.unsafe_get d len) with
      | -1 -> go (len - 1)
      | i -> Array.unsafe_get t.slots i
  in
  go 32

let routes t =
  List.init (Array.length t.keys) (fun i ->
      route_of (prefix_of_key t.keys.(i)) t.bodies.(t.slots.(i)))

let nexthop_names nhs =
  List.sort_uniq String.compare (List.map (fun nh -> nh.nh_router) nhs)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%s [%s/%d] via %s@,"
        (Prefix.to_string r.rt_prefix)
        (proto_to_string r.rt_proto) r.rt_metric
        (String.concat ", " (nexthop_names r.rt_nexthops)))
    (routes t);
  Format.fprintf ppf "@]"
