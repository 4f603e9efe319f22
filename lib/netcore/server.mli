(** Zero-dependency line-delimited request server.

    The transport layer of [confmask serve]: it owns the listening
    socket, connection handling, a {e bounded} request queue with
    admission control, worker threads, per-request telemetry, and
    graceful drain-then-exit shutdown. It knows nothing about the
    request format beyond "one request per line, one response line per
    request" — the application supplies a [handler : string -> string]
    plus formatters for the server-originated rejections, so the
    protocol (JSON, for confmask) lives entirely in the caller.

    Concurrency model: one accept thread, one thread per connection
    (blocked threads release the runtime lock, so idle connections are
    cheap), and [workers] request-processing threads consuming the
    shared queue. CPU-heavy handlers parallelize internally through
    {!Pool}, whose workers are domains — the server threads only
    schedule and shuttle bytes. Requests on one connection are answered
    in order (pipelining is allowed); requests across connections are
    answered as workers free up.

    Admission control: a request arriving while the queue already holds
    [queue_cap] entries is {e rejected immediately} with the
    application's [rejected Queue_full] response instead of being
    accepted into an unbounded backlog — under overload the server
    degrades to fast typed errors, never to unbounded memory growth or
    silent latency. After {!initiate_shutdown}, new requests are
    rejected with [rejected Draining] while queued and in-flight
    requests complete and their responses are delivered (the graceful
    drain), then {!run} returns. A request line longer than 1 MiB is
    answered once with [rejected Too_long] and its connection is
    closed; the server never holds more of one line than that plus one
    64 KiB read. Before closing it half-closes and discards up to 4 MiB
    more of the client's input for at most 1 s, so over TCP the
    rejection is not lost to a connection reset; a client that sends
    more than that may still see one.

    Telemetry: each request runs under a ["serve.request"] span;
    [serve.accepted], [serve.served], [serve.rejected] and
    [serve.connections] counters tick process-wide. *)

type addr =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare port number (TCP on
    127.0.0.1). *)

val addr_to_string : addr -> string

type reject = Queue_full | Draining | Too_long
(** Why the server refused a request without running the handler.
    [Too_long]: the request line passed 1 MiB (newline excluded); the
    server answers once and closes the connection. *)

type config = {
  addr : addr;
  queue_cap : int;  (** bound on queued (not yet executing) requests *)
  workers : int;  (** request-processing threads *)
  handler : string -> string;  (** request line -> response line *)
  rejected : reject -> string;  (** response line for a refused request *)
  on_error : exn -> string;  (** response line when the handler raises *)
}

type t

type stats = {
  uptime_s : float;  (** monotonic seconds since {!create} *)
  accepted : int;  (** requests admitted to the queue *)
  served : int;  (** responses produced by the handler *)
  rejected_full : int;  (** admission-control rejections *)
  rejected_draining : int;  (** rejections after shutdown started *)
  queue_depth : int;  (** requests currently waiting *)
  in_flight : int;  (** requests currently executing *)
  queue_cap : int;
  workers : int;
  connections : int;  (** currently open client connections *)
}

val create : config -> t
(** Binds and listens (unlinking a stale Unix socket first). Raises
    [Unix.Unix_error] when the address cannot be bound. No thread runs
    until {!run}. *)

val run : t -> unit
(** Serves until {!initiate_shutdown} (from a handler, a signal handler
    or another thread), then drains: queued and executing requests
    finish and their responses are written, new requests are rejected,
    connections are closed, worker threads are joined, and a Unix
    socket path is unlinked. Callable once. *)

val initiate_shutdown : t -> unit
(** Starts the graceful drain; idempotent, safe from any thread and
    from OCaml signal handlers. *)

val stats : t -> stats
(** A consistent snapshot; safe from any thread, including handlers. *)

val request : addr -> string -> string
(** One-shot client: connect, send one request line, read one response
    line, close. Raises [Unix.Unix_error] / [Sys_error] when the server
    is unreachable, [End_of_file] when it hangs up without answering. *)

val connect : addr -> in_channel * out_channel
(** A persistent client connection (line-per-request pipelining); close
    with [close_out] on the returned [out_channel]. *)
