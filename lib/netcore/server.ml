type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let prefix p =
    String.length s > String.length p
    && String.equal (String.sub s 0 (String.length p)) p
  in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Unix_sock (after "unix:"))
  else if prefix "tcp:" then
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> (
        match int_of_string_opt rest with
        | Some p when p > 0 -> Ok (Tcp ("127.0.0.1", p))
        | _ -> Error (Printf.sprintf "bad tcp address '%s' (want tcp:HOST:PORT)" rest))
    | Some i -> (
        let host = String.sub rest 0 i
        and port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "bad tcp address '%s' (want tcp:HOST:PORT)" rest))
  else
    match int_of_string_opt s with
    | Some p when p > 0 -> Ok (Tcp ("127.0.0.1", p))
    | _ ->
        Error
          (Printf.sprintf
             "bad listen address '%s' (want unix:PATH, tcp:HOST:PORT or a port)" s)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type reject = Queue_full | Draining | Too_long

type config = {
  addr : addr;
  queue_cap : int;
  workers : int;
  handler : string -> string;
  rejected : reject -> string;
  on_error : exn -> string;
}

let c_accepted = Telemetry.counter "serve.accepted"
let c_served = Telemetry.counter "serve.served"
let c_rejected = Telemetry.counter "serve.rejected"
let c_connections = Telemetry.counter "serve.connections"

(* One queued request. The connection thread that read it parks on the
   cell until a worker fills [resp], then writes the response — so each
   connection's responses keep request order. *)
type pending = {
  req : string;
  cell_lock : Mutex.t;
  cell_filled : Condition.t;
  mutable resp : string option;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  started : float;
  (* Signal-handler-safe shutdown request; everything lock-based happens
     on the accept loop after it polls this. *)
  stop : bool Atomic.t;
  lock : Mutex.t;
  nonempty : Condition.t;  (* workers: queue has work (or we stopped) *)
  idle : Condition.t;  (* drain: a request fully completed *)
  queue : pending Queue.t;
  mutable draining : bool;
  mutable stopped : bool;  (* workers may exit once queue is empty *)
  mutable conn_fds : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable accepted : int;
  mutable served : int;
  mutable rejected_full : int;
  mutable rejected_draining : int;
  mutable in_flight : int;
  mutable unwritten : int;  (* admitted requests whose response is not yet on the wire *)
}

type stats = {
  uptime_s : float;
  accepted : int;
  served : int;
  rejected_full : int;
  rejected_draining : int;
  queue_depth : int;
  in_flight : int;
  queue_cap : int;
  workers : int;
  connections : int;
}

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        uptime_s = Clock.elapsed t.started;
        accepted = t.accepted;
        served = t.served;
        rejected_full = t.rejected_full;
        rejected_draining = t.rejected_draining;
        queue_depth = Queue.length t.queue;
        in_flight = t.in_flight;
        queue_cap = t.cfg.queue_cap;
        workers = t.cfg.workers;
        connections = List.length t.conn_fds;
      })

(* A dotted address as is, else the first address the name resolves to. *)
let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).h_addr_list.(0)
    with Not_found -> raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "gethostbyname", host)))

let create (cfg : config) =
  let cfg = { cfg with queue_cap = max 1 cfg.queue_cap; workers = max 1 cfg.workers } in
  let listen_fd =
    match cfg.addr with
    | Unix_sock path ->
        (try Sys.remove path with Sys_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        fd
    | Tcp (host, port) ->
        let ip = resolve host in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (ip, port));
        Unix.listen fd 64;
        fd
  in
  {
    cfg;
    listen_fd;
    started = Clock.now ();
    stop = Atomic.make false;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    idle = Condition.create ();
    queue = Queue.create ();
    draining = false;
    stopped = false;
    conn_fds = [];
    conn_threads = [];
    accepted = 0;
    served = 0;
    rejected_full = 0;
    rejected_draining = 0;
    in_flight = 0;
    unwritten = 0;
  }

let initiate_shutdown t = Atomic.set t.stop true

(* ---- worker threads ---- *)

let worker_loop t =
  let rec go () =
    Mutex.lock t.lock;
    let rec take () =
      if not (Queue.is_empty t.queue) then begin
        let p = Queue.pop t.queue in
        t.in_flight <- t.in_flight + 1;
        Mutex.unlock t.lock;
        Some p
      end
      else if t.stopped then begin
        Mutex.unlock t.lock;
        None
      end
      else begin
        Condition.wait t.nonempty t.lock;
        take ()
      end
    in
    match take () with
    | None -> ()
    | Some p ->
        let resp =
          Telemetry.with_span "serve.request" (fun () ->
              try t.cfg.handler p.req with e -> t.cfg.on_error e)
        in
        (* Fill the cell before leaving in-flight, so the drain's
           "in_flight = 0" implies every admitted request has its
           response (the connection threads then get [unwritten] to 0). *)
        Mutex.protect p.cell_lock (fun () ->
            p.resp <- Some resp;
            Condition.broadcast p.cell_filled);
        Mutex.protect t.lock (fun () ->
            t.in_flight <- t.in_flight - 1;
            t.served <- t.served + 1;
            Telemetry.incr c_served;
            Condition.broadcast t.idle);
        go ()
  in
  go ()

(* ---- connection threads ---- *)

(* Strip one trailing CR so netcat-style clients work over TCP. *)
let chomp line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* The cap on one request line. Jobs, verify and redteam name their
   config directories by path, so a line is a few hundred bytes; the one
   inline payload, verify's ["policies"] text, must fit under it, and a
   larger policy set goes through ["policies_file"]. *)
let max_line = 1 lsl 20

(* A connection's input, read in chunks straight from the socket. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { fd; chunk = Bytes.create 65536; pos = 0; len = 0 }

(* [input_line] with a cap: [`Too_long] as soon as the line passes
   [max_line] bytes, without reading the rest of it (so at most one
   chunk past the cap is held). Like [input_line], a final line without
   a newline is returned and a stream that ends before any byte raises
   [End_of_file]. *)
let read_line r =
  let line = Buffer.create 256 in
  let rec go () =
    if r.pos = r.len then begin
      let rec fill () =
        try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk)
        with Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
      in
      r.pos <- 0;
      r.len <- fill ();
      if r.len > 0 then go ()
      else if Buffer.length line = 0 then raise End_of_file
      else `Line (Buffer.contents line)
    end
    else
      let stop =
        match Bytes.index_from_opt r.chunk r.pos '\n' with
        | Some i when i < r.len -> i
        | _ -> r.len
      in
      Buffer.add_subbytes line r.chunk r.pos (stop - r.pos);
      r.pos <- min r.len (stop + 1);
      if Buffer.length line > max_line then `Too_long
      else if stop < r.len then `Line (Buffer.contents line)
      else go ()
  in
  go ()

(* After the [Too_long] rejection: half-close, then discard what the
   client still sends, at most [4 * max_line] bytes within 1 s. Closing a
   TCP socket with unread input sends a reset, which can destroy the
   rejection before the client reads it; once the input is drained the
   close is a plain end of stream. *)
let drain_rejected r =
  (try Unix.shutdown r.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 1.0 in
  let rec go left =
    let wait = deadline -. Clock.now () in
    if left > 0 && wait > 0. then
      match Unix.select [ r.fd ] [] [] wait with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read r.fd r.chunk 0 (min left (Bytes.length r.chunk)) with
          | 0 -> ()
          | n -> go (left - n))
  in
  try go (4 * max_line) with Unix.Unix_error _ -> ()

let conn_loop t fd =
  let r = reader fd and oc = Unix.out_channel_of_descr fd in
  let respond line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let finally () =
    Mutex.protect t.lock (fun () ->
        t.conn_fds <- List.filter (fun f -> f != fd) t.conn_fds;
        Condition.broadcast t.idle);
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (* Queue one request and write its response; [End_of_file] when the
     response could not be written. *)
  let serve_line line =
    let verdict =
      Mutex.protect t.lock (fun () ->
          if t.draining || Atomic.get t.stop then begin
            t.rejected_draining <- t.rejected_draining + 1;
            Telemetry.incr c_rejected;
            `Reject Draining
          end
          else if Queue.length t.queue >= t.cfg.queue_cap then begin
            t.rejected_full <- t.rejected_full + 1;
            Telemetry.incr c_rejected;
            `Reject Queue_full
          end
          else begin
            let p =
              {
                req = line;
                cell_lock = Mutex.create ();
                cell_filled = Condition.create ();
                resp = None;
              }
            in
            Queue.push p t.queue;
            t.accepted <- t.accepted + 1;
            t.unwritten <- t.unwritten + 1;
            Telemetry.incr c_accepted;
            Condition.broadcast t.nonempty;
            `Admitted p
          end)
    in
    match verdict with
    | `Reject reason -> respond (t.cfg.rejected reason)
    | `Admitted p ->
        let resp =
          Mutex.protect p.cell_lock (fun () ->
              while p.resp = None do
                Condition.wait p.cell_filled p.cell_lock
              done;
              Option.get p.resp)
        in
        let wrote = try respond resp; true with Sys_error _ -> false in
        Mutex.protect t.lock (fun () ->
            t.unwritten <- t.unwritten - 1;
            Condition.broadcast t.idle);
        if not wrote then raise End_of_file
  in
  (try
     let rec serve () =
       match read_line r with
       | `Line line ->
           serve_line (chomp line);
           serve ()
       | `Too_long ->
           (* One typed rejection, then hang up: the rest of the line is
              unread, so there is no next request boundary to resync on. *)
           Telemetry.incr c_rejected;
           respond (t.cfg.rejected Too_long);
           drain_rejected r
     in
     serve ()
   with
  | End_of_file | Sys_error _ -> ()
  | Unix.Unix_error _ -> ());
  finally ()

(* ---- the server loop ---- *)

let run t =
  let workers = List.init t.cfg.workers (fun _ -> Thread.create worker_loop t) in
  (* Accept until shutdown is requested. The 0.2 s select tick is what
     turns the signal-safe atomic flag into lock-based state changes. *)
  let rec accept_loop () =
    if Atomic.get t.stop then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              Telemetry.incr c_connections;
              let th = Thread.create (conn_loop t) fd in
              Mutex.protect t.lock (fun () ->
                  t.conn_fds <- fd :: t.conn_fds;
                  t.conn_threads <- th :: t.conn_threads)
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful drain: stop admitting (connection threads see [draining]),
     let queued and executing requests finish and their responses reach
     the wire, then tear the transport down. *)
  Mutex.protect t.lock (fun () ->
      t.draining <- true;
      while not (Queue.is_empty t.queue && t.in_flight = 0 && t.unwritten = 0) do
        Condition.wait t.idle t.lock
      done;
      t.stopped <- true;
      Condition.broadcast t.nonempty);
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.addr with
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  (* Unblock connection threads parked in [read_line]; each closes its
     own fd on the way out. *)
  let fds, threads =
    Mutex.protect t.lock (fun () -> (t.conn_fds, t.conn_threads))
  in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds;
  List.iter Thread.join workers;
  List.iter Thread.join threads

(* ---- client side ---- *)

let connect addr =
  let fd =
    match addr with
    | Unix_sock path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
        fd
    | Tcp (host, port) ->
        let ip = resolve host in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_INET (ip, port))
         with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
        fd
  in
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let request addr line =
  let ic, oc = connect addr in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n';
      flush oc;
      chomp (input_line ic))
