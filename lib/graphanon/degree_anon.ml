module Imap = Map.Make (Int)

let is_k_anonymous ~k degrees =
  let counts =
    List.fold_left
      (fun m d -> Imap.update d (function None -> Some 1 | Some n -> Some (n + 1)) m)
      Imap.empty degrees
  in
  Imap.for_all (fun _ n -> n >= k) counts

(* The reusable arrays of the dynamic program, sized for sequences of up
   to [cap] degrees; [buckets] (the counting sort's) grows on demand. *)
type workspace = {
  cap : int;
  order : int array;  (* positions by degree descending, position ascending *)
  prefix : int array;
  dp : int array;
  choice : int array;
  mutable buckets : int array;
}

let workspace cap =
  let cap = max cap 0 in
  {
    cap;
    order = Array.make (max cap 1) 0;
    prefix = Array.make (cap + 1) 0;
    dp = Array.make (cap + 1) 0;
    choice = Array.make (cap + 1) 0;
    buckets = Array.make (cap + 2) 0;
  }

(* [ws.order] := positions 0..n-1 by degree descending, then position
   ascending — the order a stable descending sort gives. A counting sort
   over the degree range; a range far wider than the sequence (never the
   case for graph degrees) takes a stable comparison sort instead. *)
let sort_desc ws deg n =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    if deg.(i) < !lo then lo := deg.(i);
    if deg.(i) > !hi then hi := deg.(i)
  done;
  let range = !hi - !lo + 1 in
  if range > (4 * n) + 64 then begin
    let idx = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare deg.(b) deg.(a)) idx;
    Array.blit idx 0 ws.order 0 n
  end
  else begin
    if Array.length ws.buckets < range + 1 then ws.buckets <- Array.make (range + 1) 0
    else Array.fill ws.buckets 0 (range + 1) 0;
    let c = ws.buckets and hi = !hi in
    (* Bucket [hi - d]: descending degree is ascending bucket. *)
    for i = 0 to n - 1 do
      let b = hi - deg.(i) + 1 in
      c.(b) <- c.(b) + 1
    done;
    for b = 1 to range do
      c.(b) <- c.(b) + c.(b - 1)
    done;
    for i = 0 to n - 1 do
      let b = hi - deg.(i) in
      ws.order.(c.(b)) <- i;
      c.(b) <- c.(b) + 1
    done
  end

(* Dynamic program over the descending-sorted sequence: group cost of
   positions i..j (inclusive) is the cost of raising every degree in the
   group to the group's maximum (the first element, since sorted). Each
   group must have >= k members; optimal substructure as in Liu-Terzi. *)
let anonymize_into ws ~k deg out =
  let n = Array.length deg in
  if k <= 0 then invalid_arg "Degree_anon.anonymize_sequence: k <= 0";
  (* Fewer than k degrees can never form a size-k group: returning the
     single undersized group would silently break the k-anonymity
     contract, so refuse, consistently with the k <= 0 case. *)
  if n > 0 && n < k then
    invalid_arg
      (Printf.sprintf "Degree_anon.anonymize_sequence: %d degrees cannot be %d-anonymous"
         n k);
  if n > ws.cap || Array.length out < n then
    invalid_arg "Degree_anon.anonymize_into: workspace too small";
  if n > 0 then begin
    sort_desc ws deg n;
    let order = ws.order in
    if n <= k then begin
      (* One group: everyone gets the maximum degree. *)
      let maxd = deg.(order.(0)) in
      for i = 0 to n - 1 do
        out.(i) <- maxd
      done
    end
    else begin
      let deg j = deg.(order.(j)) in
      (* prefix.(j) = sum of degrees of positions 0..j-1 *)
      let prefix = ws.prefix in
      prefix.(0) <- 0;
      for j = 0 to n - 1 do
        prefix.(j + 1) <- prefix.(j) + deg j
      done;
      (* dp.(j) = minimal cost to anonymize positions 0..j-1;
         choice.(j) = start of the last group. *)
      let dp = ws.dp and choice = ws.choice in
      Array.fill dp 0 (n + 1) max_int;
      Array.fill choice 0 (n + 1) 0;
      dp.(0) <- 0;
      for j = k to n do
        for i = max 0 (j - (2 * k) + 1) to j - k do
          if dp.(i) < max_int then begin
            (* raise positions i..j-1 to deg i *)
            let c = dp.(i) + ((j - i) * deg i) - (prefix.(j) - prefix.(i)) in
            if c < dp.(j) then begin
              dp.(j) <- c;
              choice.(j) <- i
            end
          end
        done
      done;
      let j = ref n in
      while !j > 0 do
        let i = choice.(!j) in
        let target = deg i in
        for pos = i to !j - 1 do
          out.(order.(pos)) <- target
        done;
        j := i
      done
    end
  end

let anonymize_sequence ~k degrees =
  let deg = Array.of_list degrees in
  let out = Array.make (Array.length deg) 0 in
  anonymize_into (workspace (Array.length deg)) ~k deg out;
  Array.to_list out

let total_increase ~orig ~target =
  List.fold_left2 (fun acc o t -> acc + (t - o)) 0 orig target
