(** Compiled network core: interned router ids, CSR adjacency, and the
    precomputed interface tables the hot kernels run on.

    [Device.network] keeps everything string-keyed and list-shaped, which
    is the right representation for compilation and editing but a poor
    one for the inner loops: OSPF's per-prefix Dijkstras, FIB
    longest-prefix matches and data-plane walks together dominate a full
    simulation. This module compiles a network once into flat int arrays
    and hash tables; the kernels ([Ospf], [Fib], [Dataplane]) consume it
    behind unchanged string-level APIs, and [Engine] caches it alongside
    its fingerprints so topology-preserving edits (the anonymization
    fixpoints' deny filters) never rebuild it.

    Everything here is a pure acceleration structure: the crucible's
    naive reference ([Crucible.Reference]: map Dijkstra, per-pair
    traceroute) is the specification its results are checked against. *)

open Netcore

(** Compressed-sparse-row directed graph over dense int vertices, with an
    array-Dijkstra kernel (int distance array + {!Netcore.Heap}). *)
module Csr : sig
  type t = private {
    n : int;  (** vertex count; valid ids are [0 .. n-1] *)
    off : int array;  (** length [n+1]; row [v] is [off.(v) .. off.(v+1)-1] *)
    head : int array;  (** per-edge target vertex *)
    cost : int array;  (** per-edge weight, non-negative *)
  }

  val of_edges : n:int -> (int * int * int) list -> t
  (** [of_edges ~n edges] with [(src, dst, cost)] edges. Within a row,
      edges keep the order they appear in [edges]. *)

  val dijkstra : t -> seeds:(int * int) list -> int array
  (** Multi-source shortest distances: entry [v] is the least
      [seed cost + path cost] over seeds and paths, or [max_int] when
      unreachable. Seeds outside [0 .. n-1] are ignored. *)
end

type t
(** The compiled form of one [Device.network]: a router-name interner,
    forward CSR adjacency, and per-(router, interface-name) /
    per-(router, out-interface, neighbor) lookup tables mirroring the
    first-match semantics of the list scans they replace. *)

val build : Device.network -> t
(** Compile unconditionally (ticks the [compiled.build] counter). *)

val get : ?prev:t -> Device.network -> t
(** Compile, or reuse [prev] when the network's interface-level topology
    is unchanged — the compiled form depends only on each router's
    interface records (adjacency derives from them), so filter-only
    edits reuse. Reuse ticks [compiled.reuse], a rebuild
    [compiled.build]. *)

val routers : t -> Interner.t
(** Router names, interned in [Device.Smap] key (= sorted) order. *)

val csr : t -> Csr.t
(** Forward router adjacency; edge cost is the out-interface OSPF cost. *)

val find_iface : t -> string -> string -> Device.iface option
(** [find_iface t router name]: the first interface of [router] named
    [name], as [List.find_opt] over [r_ifaces] would return. *)

val arrival_iface : t -> string -> string -> string -> Device.iface option
(** [arrival_iface t router out_name nh]: the interface the packet
    enters [nh] on when [router] forwards out of [out_name], matching
    the first such adjacency in [router]'s adjacency list. *)
