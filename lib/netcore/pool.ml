(* A fixed-size Domain worker pool with a helping scheduler: [map] batches
   are consumed through an atomic work-stealing index, and the submitting
   thread participates until its batch drains. Workers never block on a
   batch, so nested [map] calls from inside a task cannot deadlock; a
   worker reaching an exhausted batch simply returns to the queue. *)

type job = unit -> unit

let c_batches = Telemetry.counter "pool.batches"
let c_tasks = Telemetry.counter "pool.tasks"
let c_steals = Telemetry.counter "pool.steals"
let c_nested = Telemetry.counter "pool.nested_seq"

(* Whether the current domain is executing a task of a [map] batch.
   Tracked per domain so a task can detect that it is already running
   under the pool and keep its own fan-out sequential instead of
   flooding the queue it is being served from (the batch driver or a
   BGP multi-domain simulation already hold the pool). Single-item
   batches and sequential fallbacks do not mark: they add no
   parallelism, so fan-out below them is still free to use the pool. *)
let task_depth = Domain.DLS.new_key (fun () -> ref 0)

let in_worker () = !(Domain.DLS.get task_depth) > 0

type t = {
  jobs : int;
  queue : job Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    let rec take () =
      if t.stopped then begin
        Mutex.unlock t.lock;
        None
      end
      else if Queue.is_empty t.queue then begin
        Condition.wait t.work_available t.lock;
        take ()
      end
      else begin
        let job = Queue.pop t.queue in
        Mutex.unlock t.lock;
        Some job
      end
    in
    match take () with
    | None -> ()
    | Some job ->
        job ();
        next ()
  in
  next ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      stopped = false;
      workers = [];
    }
  in
  (* The caller helps during [map], so jobs - 1 background domains give a
     total of [jobs] active workers. *)
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t


let shutdown t =
  Mutex.lock t.lock;
  t.stopped <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.jobs <= 1 || t.stopped -> List.map f xs
  | _ when in_worker () ->
      (* Nested fan-out from inside a pool task: the pool is already
         busy with the enclosing batch, so run in place. Results are
         identical either way. *)
      Telemetry.incr c_nested;
      List.map f xs
  | _ ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let error = Atomic.make None in
      let next = Atomic.make 0 in
      let completed = Atomic.make 0 in
      Telemetry.incr c_batches;
      Telemetry.add c_tasks n;
      (* The last finisher signals the submitter, which parks on
         [batch_done] once a bounded spin has not seen the batch drain —
         so a long tail task does not pin the submitting core. *)
      let batch_lock = Mutex.create () in
      let batch_done = Condition.create () in
      let finish_one () =
        if Atomic.fetch_and_add completed 1 + 1 = n then begin
          Mutex.lock batch_lock;
          Condition.broadcast batch_done;
          Mutex.unlock batch_lock
        end
      in
      let help ~stolen () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            if stolen then Telemetry.incr c_steals;
            let depth = Domain.DLS.get task_depth in
            incr depth;
            (try results.(i) <- Some (f items.(i))
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set error None (Some (e, bt))));
            decr depth;
            finish_one ();
            go ()
          end
        in
        go ()
      in
      (* Hand a helper to every idle worker; stale helpers popped after the
         batch has drained exit immediately. *)
      let helpers = min (t.jobs - 1) (n - 1) in
      Mutex.lock t.lock;
      for _ = 1 to helpers do
        Queue.push (help ~stolen:true) t.queue
      done;
      Condition.broadcast t.work_available;
      Mutex.unlock t.lock;
      help ~stolen:false ();
      let spins = ref 0 in
      while Atomic.get completed < n && !spins < 10_000 do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get completed < n then begin
        Mutex.lock batch_lock;
        while Atomic.get completed < n do
          Condition.wait batch_done batch_lock
        done;
        Mutex.unlock batch_lock
      end;
      (match Atomic.get error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list (Array.map Option.get results)

(* The process-wide shared pool. Sized by [Domain.recommended_domain_count]
   unless [set_default_jobs] was called first (the [--jobs] flag). *)

(* Both the lazy init and the resize read-modify-write [shared] under one
   mutex: two domains racing [default ()] used to each build a pool, with
   one leaking its worker domains forever. [shutdown] of the displaced
   pool happens outside the lock — it may block on an in-flight [map],
   which completes normally (workers finish the batch they are helping
   with before they notice [stopped]), and new callers already get the
   replacement pool meanwhile. *)

let default_jobs = ref None
let shared = ref None
let shared_lock = Mutex.create ()

let set_default_jobs j =
  let displaced =
    Mutex.protect shared_lock (fun () ->
        default_jobs := Some (max 1 j);
        let p = !shared in
        shared := None;
        p)
  in
  match displaced with Some p -> shutdown p | None -> ()

let default () =
  Mutex.protect shared_lock (fun () ->
      match !shared with
      | Some p -> p
      | None ->
          let p = create ?jobs:!default_jobs () in
          shared := Some p;
          p)

let parallel_map ?pool f xs =
  let t = match pool with Some t -> t | None -> default () in
  map t f xs

let effective_jobs ?pool () =
  if in_worker () then 1
  else match pool with Some t -> t.jobs | None -> (default ()).jobs

(* Split [xs] into at most [into] contiguous runs of near-equal length.
   Concatenating the result always gives back [xs]; the boundaries only
   affect scheduling, never results. *)
let chunks ~into xs =
  let n = List.length xs in
  if into <= 1 || n <= 1 then [ xs ]
  else begin
    let into = min into n in
    let q = n / into and r = n mod into in
    let rec take k xs acc =
      if k = 0 then (List.rev acc, xs)
      else
        match xs with
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) tl (x :: acc)
    in
    let rec go i xs acc =
      if i = into then List.rev acc
      else
        let size = q + if i < r then 1 else 0 in
        let c, rest = take size xs [] in
        go (i + 1) rest (c :: acc)
    in
    go 0 xs []
  end

let chunked_map ?pool f xs =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | _ ->
      let t = match pool with Some t -> t | None -> default () in
      (* A few chunks per worker so a straggling chunk does not idle the
         rest of the pool. *)
      let into = effective_jobs ~pool:t () * 4 in
      List.concat (map t (List.map f) (chunks ~into xs))
