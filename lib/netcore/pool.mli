(** A fixed-size [Domain]-based worker pool.

    Work submitted through {!map} is consumed cooperatively: the calling
    thread participates in its own batch, and pool workers never block on
    a batch's completion, so nested [map] calls (a parallel stage inside a
    parallel stage) are safe and cannot deadlock. Results preserve input
    order, and with equal inputs the output is identical to [List.map] —
    parallelism never changes observable results. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns a pool of [jobs] workers ([jobs - 1]
    background domains plus the caller during a [map]). Defaults to
    [Domain.recommended_domain_count ()]; values [<= 1] yield a pool that
    runs everything sequentially on the caller. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. If any application raises, the first
    exception (by completion order) is re-raised after the batch drains.
    The submitter helps with its own batch, then waits for the stragglers
    with a bounded spin followed by a condition wait — it does not burn a
    core while the last worker finishes a long task. *)

val shutdown : t -> unit
(** Joins the worker domains. Subsequent [map]s run sequentially. *)

val set_default_jobs : int -> unit
(** Size the process-wide shared pool (the [--jobs N] flag). Replaces an
    already-created shared pool; an in-flight {!map} on the displaced
    pool completes normally. Clamped below at 1. *)

val default : unit -> t
(** The process-wide shared pool, created on first use. Safe to call from
    multiple domains concurrently: every caller gets the same pool. *)

val parallel_map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over [pool], defaulting to the shared pool. *)

val effective_jobs : ?pool:t -> unit -> int
(** The parallelism a fan-out issued here will actually get: 1 when
    the calling domain is running a task of a {!map} batch (nested maps
    run sequentially in place), otherwise the job count
    of [pool] (default: the shared pool). Use it to size work chunks. *)

val chunks : into:int -> 'a list -> 'a list list
(** Split a list into at most [into] contiguous runs of near-equal
    length; concatenating them restores the input. [into <= 1] yields a
    single chunk. *)

val chunked_map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!parallel_map} but batches the items into a few contiguous
    chunks per worker instead of one task per item — the right shape for
    many small items (per-prefix Dijkstras, per-pair traces). Equal to
    [List.map f xs] whatever the chunking. *)
