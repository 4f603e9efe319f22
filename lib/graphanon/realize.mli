(** Realization of a k-anonymous degree sequence by edge additions only.

    Greedy matching of degree-deficient node pairs, with a relaxation loop:
    if the deficiencies cannot be realized exactly (odd total, adjacency
    conflicts), the remaining deficient nodes are connected to arbitrary
    non-adjacent nodes and the target sequence is recomputed on the new
    degrees — degrees only grow, so the loop terminates. Constrained
    variants restrict which node pairs may be linked (ConfMask restricts
    fake intra-AS links to routers of the same AS, §4.2). *)

open Netcore

val one_attempt :
  ?allowed:(string -> string -> bool) ->
  rng:Rng.t ->
  k:int ->
  Graph.t ->
  Graph.t * (string * string) list
(** One randomized realization, as {!add_edges} runs each attempt (on a
    [Rng.split] of its generator): the supergraph and the added edges in
    the order they were added. Exposed so tests can pin its output and
    its random draw sequence to the name-keyed reference. *)

val add_edges :
  ?allowed:(string -> string -> bool) ->
  rng:Rng.t ->
  k:int ->
  Graph.t ->
  Graph.t * (string * string) list
(** [add_edges ~rng ~k g] returns a supergraph of [g] whose degree
    sequence is k-anonymous, together with the added edges. [allowed]
    restricts candidate pairs (default: everything); when the constraint
    makes k-anonymity unreachable the constraint is dropped for the
    remaining deficiencies rather than failing. The randomized realization
    is repeated three times and the result with the fewest added edges
    kept. Raises [Invalid_argument] when [k] exceeds
    the number of nodes. *)
