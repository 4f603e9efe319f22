let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ---- counters ---- *)

type counter = { c_name : string; c_cell : int Atomic.t }

let registry_lock = Mutex.create ()
let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c)

let add c n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cell n)

let incr c = add c 1
let value c = Atomic.get c.c_cell

let counters () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_cell) :: acc) registry [])
  |> List.sort compare

(* ---- spans ---- *)

type span_stat = { mutable s_count : int; mutable s_seconds : float }

let spans_lock = Mutex.create ()
let span_table : (string, span_stat) Hashtbl.t = Hashtbl.create 64

(* Innermost-first stack of enclosing span names, per domain. *)
let span_stack : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let record path seconds =
  Mutex.protect spans_lock (fun () ->
      let s =
        match Hashtbl.find_opt span_table path with
        | Some s -> s
        | None ->
            let s = { s_count = 0; s_seconds = 0.0 } in
            Hashtbl.replace span_table path s;
            s
      in
      s.s_count <- s.s_count + 1;
      s.s_seconds <- s.s_seconds +. seconds)

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    let path = String.concat "/" (List.rev (name :: stack)) in
    Domain.DLS.set span_stack (name :: stack);
    (* Monotonic, not wall clock: an NTP step inside the span would
       otherwise record a negative or garbage duration. *)
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Clock.elapsed t0 in
        Domain.DLS.set span_stack stack;
        record path dt)
      f
  end

let spans () =
  Mutex.protect spans_lock (fun () ->
      Hashtbl.fold
        (fun path s acc -> (path, s.s_count, s.s_seconds) :: acc)
        span_table [])
  |> List.sort compare

(* ---- reports ---- *)

let pp_report ppf () =
  let sp = spans () in
  if sp <> [] then begin
    Format.fprintf ppf "spans:@.";
    List.iter
      (fun (path, count, seconds) ->
        Format.fprintf ppf "  %-40s %6d calls %10.3fs@." path count seconds)
      sp
  end;
  Format.fprintf ppf "counters:@.";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-40s %10d@." name v)
    (counters ())

let json_fields () =
  let int n = Json.Num (float_of_int n) in
  [
    ( "spans",
      Json.Arr
        (List.map
           (fun (path, count, seconds) ->
             Json.Obj
               [
                 ("path", Json.Str path);
                 ("count", int count);
                 ("seconds", Json.Num seconds);
               ])
           (spans ())) );
    ( "counters",
      Json.Obj (List.map (fun (name, v) -> (name, int v)) (counters ())) );
  ]

let report_json () = Json.to_string (Json.Obj (json_fields ())) ^ "\n"
