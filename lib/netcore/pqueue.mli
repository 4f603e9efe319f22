(** Minimal purely-functional min-priority queue (pairing heap) with
    integer priorities, used by [Gmetrics.dijkstra] and the crucible's
    reference Dijkstra. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val insert : int -> 'a -> 'a t -> 'a t

val pop : 'a t -> (int * 'a * 'a t) option
(** Removes a minimum-priority element. *)
