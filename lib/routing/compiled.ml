open Netcore
module Smap = Device.Smap

let c_build = Telemetry.counter "compiled.build"
let c_reuse = Telemetry.counter "compiled.reuse"

module Csr = struct
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
end

type t = {
  names : Interner.t;
  graph : Csr.t;
  ifaces : (string * string, Device.iface) Hashtbl.t;
  arrivals : (string * string * string, Device.iface) Hashtbl.t;
  topo_sig : string;
}

let routers t = t.names
let csr t = t.graph
let find_iface t router name = Hashtbl.find_opt t.ifaces (router, name)

let arrival_iface t router out_name nh =
  Hashtbl.find_opt t.arrivals (router, out_name, nh)

(* Everything compiled here is a function of the routers' interface
   records alone: the interner and tables read them directly, and
   [Device.compile] derives the adjacency lists from interface subnets.
   Marshal is a sound structural serializer for the same reason it is in
   [Engine]: compiled routers are immutable data. *)
let signature (net : Device.network) =
  Digest.string
    (Marshal.to_string
       (Smap.fold
          (fun name (r : Device.router) acc -> (name, r.r_ifaces) :: acc)
          net.routers [])
       [])

(* First-wins insertion: the tables must return what a first-match
   [List.find_opt] scan returns, and [Hashtbl.find] returns the most
   recently added binding. *)
let add_if_absent tbl key v =
  if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

let build_with net topo_sig =
  let names = Interner.create ~capacity:(Smap.cardinal net.Device.routers) () in
  Smap.iter (fun name _ -> ignore (Interner.intern names name)) net.routers;
  let ifaces = Hashtbl.create 256 in
  Smap.iter
    (fun name (r : Device.router) ->
      List.iter
        (fun (i : Device.iface) -> add_if_absent ifaces (name, i.ifc_name) i)
        r.r_ifaces)
    net.routers;
  let arrivals = Hashtbl.create 256 in
  let edges =
    Smap.fold
      (fun name adjs acc ->
        let u = Interner.find_exn names name in
        List.fold_left
          (fun acc (a : Device.adj) ->
            add_if_absent arrivals
              (name, a.a_out_iface.ifc_name, a.a_to)
              a.a_in_iface;
            (u, Interner.find_exn names a.a_to, a.a_out_iface.ifc_cost) :: acc)
          acc adjs)
      net.adjs []
    (* Undo the cons order so each CSR row lists its edges in
       adjacency-list order. *)
    |> List.rev
  in
  let graph = Csr.of_edges ~n:(Interner.length names) edges in
  { names; graph; ifaces; arrivals; topo_sig }

let build net =
  Telemetry.incr c_build;
  build_with net (signature net)

let get ?prev net =
  let s = signature net in
  match prev with
  | Some c when String.equal c.topo_sig s ->
      Telemetry.incr c_reuse;
      c
  | _ ->
      Telemetry.incr c_build;
      build_with net s
