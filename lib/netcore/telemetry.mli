(** Lightweight pipeline telemetry: named spans and atomic counters.

    Everything here is process-global and safe to use from any [Domain]:
    counters are [Atomic] cells, span aggregation is mutex-protected, and
    the per-domain span stack lives in domain-local storage so nested
    spans compose correctly across the worker pool.

    Disabled is the default and costs one [Atomic.get] branch per call —
    counters do not tick and spans do not read the clock. Enable with
    {!set_enabled} (the CLI's [--trace] / [--metrics-out] flags and the
    bench harness do) before running the pipeline being measured. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters} *)

type counter
(** A named atomic counter, interned process-wide by name: two [counter]
    calls with the same name return the same cell. *)

val counter : string -> counter
val incr : counter -> unit
(** No-op while disabled. *)

val add : counter -> int -> unit
(** No-op while disabled. *)

val value : counter -> int
val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] on the monotonic clock ({!Clock.now},
    so a wall-clock step can never record a negative duration) and aggregates the
    duration under the span's path — [name] prefixed by the names of the
    enclosing spans of the current domain, joined with ["/"]. While
    disabled it is exactly [f ()]. Exceptions propagate; the time until
    the raise is still recorded. *)

val spans : unit -> (string * int * float) list
(** [(path, count, total_seconds)] per recorded span path, sorted. *)

(** {1 Reports} *)

val pp_report : Format.formatter -> unit -> unit
(** Human-readable spans-then-counters report (the [--trace] output). *)

val json_fields : unit -> (string * Json.t) list
(** The same report as JSON object fields:
    [("spans", [{"path", "count", "seconds"}...])] and
    [("counters", {name: int...})] — the [--metrics-out] file and the
    tail of the serve [stats] reply. *)

val report_json : unit -> string
(** {!json_fields} as one JSON object, printed by {!Json.to_string} and
    terminated by a newline. *)
