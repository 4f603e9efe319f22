(** k-anonymization of degree sequences (Liu & Terzi, SIGMOD 2008).

    Given a degree sequence, compute a k-anonymous target sequence that
    only *increases* degrees — the variant ConfMask needs, because its
    topology anonymization may only add links, never remove them (§4.2).
    The dynamic program minimizes the total degree increase subject to
    every degree value being shared by at least [k] nodes. *)

val anonymize_sequence : k:int -> int list -> int list
(** [anonymize_sequence ~k degrees] returns the target degree for each
    input position (same order as the input). Every target is >= the
    corresponding input degree, and the multiset of targets is
    k-anonymous. Exactly [k] elements collapse to a single group at the
    maximum degree; the empty list maps to the empty list. Raises
    [Invalid_argument] if [k <= 0], or if [0 < length degrees < k] — a
    sequence shorter than [k] can never be k-anonymous, and silently
    returning the undersized single group would break the contract. *)

type workspace
(** The arrays of {!anonymize_into}, allocated once and reused across
    calls: a caller that re-anonymizes a sequence every round (graph
    realization) allocates nothing per round. *)

val workspace : int -> workspace
(** [workspace n] serves sequences of up to [n] degrees. *)

val anonymize_into : workspace -> k:int -> int array -> int array -> unit
(** [anonymize_into ws ~k deg out] writes [anonymize_sequence ~k] of
    [deg]'s elements into [out.(0) .. out.(n - 1)], [n = Array.length
    deg], with the same errors. The dynamic program runs on arrays,
    ordered by a counting sort: degree descending, then position
    ascending. Raises [Invalid_argument] when [ws] serves fewer than [n]
    degrees or [out] is shorter than [deg]. *)

val is_k_anonymous : k:int -> int list -> bool
(** Whether every distinct value occurs at least [k] times (vacuously true
    for the empty list). *)

val total_increase : orig:int list -> target:int list -> int
