(** Compressed-sparse-row directed graph over dense int vertices, with an
    array-Dijkstra kernel (int distance array + {!Netcore.Heap}): the
    graph [Ospf] runs its per-prefix and per-source Dijkstras on. *)

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
