open Netcore

type t = { n : int; off : int array; head : int array; cost : int array }

let of_edges ~n edges =
  let off = Array.make (n + 1) 0 in
  let m =
    List.fold_left
      (fun m (u, _, _) ->
        off.(u + 1) <- off.(u + 1) + 1;
        m + 1)
      0 edges
  in
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let head = Array.make m 0 and cost = Array.make m 0 in
  (* Fill each row at its running cursor so input order is preserved. *)
  let cursor = Array.copy off in
  List.iter
    (fun (u, v, c) ->
      let e = cursor.(u) in
      cursor.(u) <- e + 1;
      head.(e) <- v;
      cost.(e) <- c)
    edges;
  { n; off; head; cost }

let dijkstra t ~seeds =
  let dist = Array.make t.n max_int in
  let heap = Heap.create ~capacity:(t.n + 1) () in
  List.iter
    (fun (v, c) ->
      if v >= 0 && v < t.n && c < dist.(v) then begin
        dist.(v) <- c;
        Heap.push heap ~prio:c v
      end)
    seeds;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
        (* Stale queue entries (superseded by a shorter path) have
           [d > dist.(v)] and are skipped — lazy decrease-key. *)
        if d = dist.(v) then
          for e = t.off.(v) to t.off.(v + 1) - 1 do
            let u = t.head.(e) in
            let nd = d + t.cost.(e) in
            if nd < dist.(u) then begin
              dist.(u) <- nd;
              Heap.push heap ~prio:nd u
            end
          done;
        drain ()
  in
  drain ();
  dist
