(** Mutable array-backed binary min-heap with integer priorities and
    integer payloads — the allocation-free inner queue of the compiled
    Dijkstra kernels. {!Pqueue} is the persistent queue over arbitrary
    payloads, used where clarity beats speed: [Gmetrics.dijkstra] and
    the crucible's naive reference Dijkstra.

    Not thread-safe; use one heap per Dijkstra run. *)

type t

val create : ?capacity:int -> unit -> t

val is_empty : t -> bool
val size : t -> int

val push : t -> prio:int -> int -> unit

val pop : t -> (int * int) option
(** Removes a minimum-priority entry as [(prio, value)]. Ties pop in an
    unspecified order. *)

val clear : t -> unit
(** Empties the heap, keeping its storage for reuse. *)
