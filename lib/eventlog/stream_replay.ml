module Events = Sfr_runtime.Events
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Access_history = Sfr_detect.Access_history
module Race = Sfr_detect.Race
module Detect_error = Sfr_detect.Detect_error
module Metrics = Sfr_obs.Metrics

let m_events = Metrics.counter "eventlog.stream.events"
let m_steps = Metrics.counter "eventlog.stream.steps"
let m_shard_checks = Metrics.counter "eventlog.stream.shard_checks"

(* Hot-path attribution for the serve layer's ingest: one [step] is the
   analysis work a drained chunk pays for. *)
let t_step = Sfr_obs.Prof.timer "prof.eventlog.stream_step.ns"

type status =
  | Complete
  | Torn of Log_format.error
  | Inconsistent of Replay.error
  | Detector_failed of string

let status_to_string = function
  | Complete -> "complete"
  | Torn e -> Printf.sprintf "torn stream: %s" (Log_format.error_to_string e)
  | Inconsistent e -> Replay.error_to_string e
  | Detector_failed msg -> Printf.sprintf "detector failed: %s" msg

type verdict = {
  status : status;
  reports : Race.report list;
  racy_locations : int list;
  events_applied : int;
  bytes_analyzed : int;
  queries : int;
}

(* One worker stream's undecoded-but-arrived events: a FIFO whose head
   is the only candidate for application (stream order is program order
   on that worker). *)
type wstream = { q : Log_format.event Queue.t; mutable applied : int }

type access = Shard_replay.access = {
  state : Events.state;
  loc : int;
  is_write : bool;
}

type shard_state = {
  n : int;
  histories : Events.state Access_history.t array;
  races : Race.t array;
  pending : access list ref array;  (** newest-first; reversed at check *)
  mutable n_pending : int;
  batch : int;
  precedes : Events.state -> Events.state -> bool;
}

type t = {
  reader : Stream_reader.t;
  det : Detector.t;
  shards : shard_state option;  (** [None] = inline checking *)
  mutable streams : wstream array;
  mutable states : Events.state option array;
  mutable applied : int;
  mutable failed : status option;  (** first latched failure, sticky *)
  mutable final : verdict option;  (** close is idempotent *)
}

let create ?(shards = 1) ?(access_batch = 8192) () =
  if shards < 1 then invalid_arg "Stream_replay.create: shards must be >= 1";
  let det, precedes = Sf_order.make_with_precedes () in
  let shard_state =
    if shards = 1 then None
    else
      Some
        {
          n = shards;
          histories =
            Array.init shards (fun _ ->
                Access_history.create ~sync:`Unsynchronized
                  Access_history.Keep_all);
          races = Array.init shards (fun _ -> Race.create ());
          pending = Array.init shards (fun _ -> ref []);
          n_pending = 0;
          batch = max 1 access_batch;
          precedes;
        }
  in
  {
    reader = Stream_reader.create ();
    det;
    shards = shard_state;
    streams = [||];
    states = Array.make 64 None;
    applied = 0;
    failed = None;
    final = None;
  }

let events_applied t = t.applied
let bytes_analyzed t = Stream_reader.consumed t.reader

let feed t bytes ~pos ~len =
  if t.failed = None && t.final = None then
    Stream_reader.feed t.reader bytes ~pos ~len

let ensure_stream t w =
  if w >= Array.length t.streams then begin
    let a =
      Array.init
        (max (w + 1) (2 * Array.length t.streams))
        (fun i ->
          if i < Array.length t.streams then t.streams.(i)
          else { q = Queue.create (); applied = 0 })
    in
    t.streams <- a
  end

let ensure_state t id =
  if id >= Array.length t.states then begin
    let a =
      Array.make (max (id + 1) (2 * Array.length t.states)) None
    in
    Array.blit t.states 0 a 0 (Array.length t.states);
    t.states <- a
  end

let lookup t id =
  match t.states.(id) with
  | Some s -> s
  | None -> assert false (* readiness-checked before apply *)

exception Redefined_exn of int

let define t id s =
  ensure_state t id;
  match t.states.(id) with
  | None -> t.states.(id) <- Some s
  | Some _ -> raise (Redefined_exn id)

let ready t ev =
  List.for_all
    (fun id -> id < Array.length t.states && t.states.(id) <> None)
    (Log_format.inputs ev)

(* -- sharded access checking ------------------------------------------- *)

let check_shard_batch sh s accesses =
  Shard_replay.check_shard ~precedes:sh.precedes sh.histories.(s) sh.races.(s)
    accesses

(* Drain every pending per-shard batch, shard 0 on the calling domain
   and the rest on freshly spawned ones — the streaming counterpart of
   Shard_replay's phase 2. Runs while the structural merge is paused,
   so the frozen-prefix reachability structures are read-only. *)
let flush_shards sh =
  if sh.n_pending > 0 then begin
    Metrics.incr m_shard_checks;
    let batches =
      Array.map
        (fun p ->
          let b = Array.of_list (List.rev !p) in
          p := [];
          b)
        sh.pending
    in
    sh.n_pending <- 0;
    let work = ref [] in
    for s = sh.n - 1 downto 1 do
      if Array.length batches.(s) > 0 then
        work := (s, Domain.spawn (fun () -> check_shard_batch sh s batches.(s))) :: !work
    done;
    if Array.length batches.(0) > 0 then check_shard_batch sh 0 batches.(0);
    List.iter (fun (_, d) -> Domain.join d) !work
  end

(* -- the merge loop ----------------------------------------------------- *)

let latch t status = if t.failed = None then t.failed <- Some status

let apply_event t ev =
  match t.shards with
  | Some sh -> (
      match (ev : Log_format.event) with
      | Read { cur; loc } | Write { cur; loc } ->
          let is_write =
            match ev with Log_format.Write _ -> true | _ -> false
          in
          let s = Shard_replay.shard_of ~loc ~shards:sh.n in
          sh.pending.(s) := { state = lookup t cur; loc; is_write } :: !(sh.pending.(s));
          sh.n_pending <- sh.n_pending + 1;
          if sh.n_pending >= sh.batch then flush_shards sh
      | _ ->
          Replay.apply_callbacks t.det.Detector.callbacks
            ~lookup:(lookup t)
            ~define:(fun id s -> define t id s)
            ev)
  | None ->
      Replay.apply_callbacks t.det.Detector.callbacks
        ~lookup:(lookup t)
        ~define:(fun id s -> define t id s)
        ev

(* Sweep the streams, applying every ready head, until a full sweep makes
   no progress (then: wait for more input; whether that's a deadlock is
   only decidable at close). *)
let merge t =
  let progress = ref true in
  while !progress && t.failed = None do
    progress := false;
    Array.iteri
      (fun w st ->
        let continue_ = ref true in
        while !continue_ && t.failed = None && not (Queue.is_empty st.q) do
          let ev = Queue.peek st.q in
          if ready t ev then begin
            (match apply_event t ev with
            | () ->
                ignore (Queue.pop st.q);
                st.applied <- st.applied + 1;
                t.applied <- t.applied + 1;
                Metrics.incr m_events;
                progress := true
            | exception Redefined_exn id ->
                latch t
                  (Inconsistent
                     (Replay.Redefined { worker = w; index = st.applied; id }))
            | exception Detect_error.Error e ->
                latch t (Detector_failed (Detect_error.to_string e))
            | exception exn ->
                latch t (Detector_failed (Printexc.to_string exn)))
          end
          else continue_ := false
        done)
      t.streams
  done

let step t =
  if t.failed = None && t.final = None then begin
    Metrics.incr m_steps;
    let pt = Sfr_obs.Prof.start () in
    (match Stream_reader.drain t.reader with
    | Ok evs ->
        List.iter
          (fun (w, ev) ->
            ensure_stream t w;
            Queue.push ev t.streams.(w).q)
          evs
    | Error e -> latch t (Torn e));
    if t.failed = None then begin
      (* root state exists before any event *)
      if t.states.(0) = None then t.states.(0) <- Some t.det.Detector.root;
      merge t
    end;
    Sfr_obs.Prof.stop t_step pt
  end

(* The first blocked stream head and the state it waits on — mirrors
   Replay.drive's stuck diagnostics. *)
let find_blocked t =
  let blocked = ref None in
  Array.iteri
    (fun w st ->
      if !blocked = None && not (Queue.is_empty st.q) then
        let ev = Queue.peek st.q in
        match
          List.find_opt
            (fun id -> id >= Array.length t.states || t.states.(id) = None)
            (Log_format.inputs ev)
        with
        | Some missing -> blocked := Some (w, st.applied, missing)
        | None -> ())
    t.streams;
  !blocked

let undrained t =
  Array.exists (fun st -> not (Queue.is_empty st.q)) t.streams

let make_verdict t status =
  (match t.shards with Some sh -> flush_shards sh | None -> ());
  let reports =
    match t.shards with
    | None -> Race.reports t.det.Detector.races
    | Some sh ->
        Array.to_list sh.races
        |> List.concat_map Race.reports
        |> List.sort (fun (a : Race.report) b -> compare a.Race.loc b.Race.loc)
  in
  {
    status;
    reports;
    racy_locations = List.map (fun (r : Race.report) -> r.Race.loc) reports;
    events_applied = t.applied;
    bytes_analyzed = Stream_reader.consumed t.reader;
    queries = t.det.Detector.queries ();
  }

let partial t =
  match t.final with
  | Some v -> v
  | None ->
      let status =
        match t.failed with
        | Some s -> s
        | None -> (
            match Stream_reader.finished t.reader with
            | Some _ when not (undrained t) -> Complete
            | _ ->
                Torn
                  (Log_format.Truncated
                     {
                       offset = Stream_reader.consumed t.reader;
                       while_ = "stream still open";
                     }))
      in
      make_verdict t status

let close t ~abrupt =
  match t.final with
  | Some v -> v
  | None ->
      step t;
      let status =
        match t.failed with
        | Some s -> s
        | None -> (
            match Stream_reader.finish t.reader with
            | Ok _ when not (undrained t) -> Complete
            | Ok _ -> (
                match find_blocked t with
                | Some (worker, index, missing) ->
                    Inconsistent
                      (Replay.Stuck
                         { replayed = t.applied; worker; index; missing })
                | None ->
                    Inconsistent
                      (Replay.Stuck
                         { replayed = t.applied; worker = 0; index = 0; missing = 0 }))
            | Error e ->
                (* abrupt or not: an incomplete stream is torn; [abrupt]
                   only distinguishes how the transport ended, the
                   analyzed-prefix verdict is the same *)
                ignore abrupt;
                Torn e)
      in
      let v = make_verdict t status in
      t.final <- Some v;
      v
