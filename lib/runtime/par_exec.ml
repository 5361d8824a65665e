type task = unit -> unit

module Metrics = Sfr_obs.Metrics
module Trace_event = Sfr_obs.Trace_event
module Flight = Sfr_obs.Flight
module Telemetry = Sfr_obs.Telemetry
module Chaos = Sfr_chaos.Chaos

let m_spawns = Metrics.counter "runtime.spawns"
let m_creates = Metrics.counter "runtime.creates"
let m_gets = Metrics.counter "runtime.gets"
let m_tasks = Metrics.counter "runtime.tasks"
let m_steals = Metrics.counter "runtime.steals"

(* -- per-worker deque: LIFO at the bottom (owner), FIFO steals at the
   top. A mutex-protected ring buffer: simple, correct, and uncontended
   enough for the worker counts we target (the paper's bottleneck is the
   access-history locking, not the deques). *)
module Deque = struct
  type t = {
    mu : Mutex.t;
    mutable items : task array;
    mutable head : int; (* steal end *)
    mutable tail : int; (* owner end; valid range is [head, tail) *)
  }

  let nop : task = fun () -> ()

  let create () = { mu = Mutex.create (); items = Array.make 64 nop; head = 0; tail = 0 }

  let grow d =
    let n = Array.length d.items in
    let items = Array.make (2 * n) nop in
    let len = d.tail - d.head in
    for i = 0 to len - 1 do
      items.(i) <- d.items.((d.head + i) mod n)
    done;
    d.items <- items;
    d.head <- 0;
    d.tail <- len

  let push_bottom d x =
    Mutex.lock d.mu;
    if d.tail - d.head = Array.length d.items then grow d;
    d.items.(d.tail mod Array.length d.items) <- x;
    d.tail <- d.tail + 1;
    Mutex.unlock d.mu

  let pop_bottom d =
    Mutex.lock d.mu;
    let r =
      if d.tail = d.head then None
      else begin
        d.tail <- d.tail - 1;
        let i = d.tail mod Array.length d.items in
        let x = d.items.(i) in
        d.items.(i) <- nop;
        Some x
      end
    in
    Mutex.unlock d.mu;
    r

  let steal_top d =
    Mutex.lock d.mu;
    let r =
      if d.tail = d.head then None
      else begin
        let i = d.head mod Array.length d.items in
        let x = d.items.(i) in
        d.items.(i) <- nop;
        d.head <- d.head + 1;
        Some x
      end
    in
    Mutex.unlock d.mu;
    r

  (* unlocked racy read for the telemetry probe: head/tail are plain
     mutable ints, so a sample can be momentarily stale or torn against
     a concurrent push/pop — clamped, never negative, never a crash *)
  let depth d = max 0 (d.tail - d.head)
end

(* Per-worker scheduler statistics, written by the owning worker only
   (plain mutable ints, no sharing) and only while the telemetry sampler
   is armed — the disarmed cost at each site is the one atomic load in
   [Telemetry.armed]. The sampler domain reads them racily, which is the
   deal every gauge in the telemetry stream makes. *)
type wstat = {
  mutable p_tasks : int;
  mutable p_steals : int;
  mutable p_idle_spins : int;
}

(* A frame joins its spawned children with one counter, Cilk style: the
   running strand holds one token and each spawn adds one. A returning
   child pushes its last state onto [spawned_lasts] and gives its token
   back; the strand gives its own back at a sync, after parking the
   sync's continuation. Whoever takes the count to zero runs the parked
   sync, which restores the strand's token. Only the frame's own strand
   touches [created_firsts] and [pending_sync]; the counter's atomic
   update orders those writes before the parked sync reads them on
   another domain. *)
type frame = {
  join : int Atomic.t;
  spawned_lasts : Events.state list Atomic.t;
  mutable created_firsts : Events.state list;
  mutable pending_sync : task;
}

let new_frame () =
  {
    join = Atomic.make 1;
    spawned_lasts = Atomic.make [];
    created_firsts = [];
    pending_sync = Deque.nop;
  }

(* Domain-local worker identity and current strand state. *)
let worker_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let cur_key : Events.state ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Events.Unit_state)

let get_cur () = !(Domain.DLS.get cur_key)
let set_cur s = Domain.DLS.get cur_key := s

type sched = {
  cb : Events.callbacks;
  deques : Deque.t array;
  wstats : wstat array;
  live : int Atomic.t; (* pushed-but-unfinished task closures *)
  quiescent : bool Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first failure wins; its backtrace is preserved to the join *)
}

(* The scheduler currently executing a [run], if any — the telemetry
   probe reads it from the sampler domain. *)
let live_sched : sched option Atomic.t = Atomic.make None

type probe = {
  workers : int;
  deque_depths : int array;
  tasks : int array;
  steals : int array;
  idle_spins : int array;
}

let probe_of_sched s =
  {
    workers = Array.length s.deques;
    deque_depths = Array.map Deque.depth s.deques;
    tasks = Array.map (fun w -> w.p_tasks) s.wstats;
    steals = Array.map (fun w -> w.p_steals) s.wstats;
    idle_spins = Array.map (fun w -> w.p_idle_spins) s.wstats;
  }

(* [run] freezes its final probe here before clearing [live_sched], so
   end-of-run consumers (tests, the final telemetry sample's caller) can
   still reconcile per-worker totals against the Metrics counters. *)
let last_probe_v : probe option Atomic.t = Atomic.make None

let probe () =
  match Atomic.get live_sched with
  | Some s -> Some (probe_of_sched s)
  | None -> Atomic.get last_probe_v

let last_probe () = Atomic.get last_probe_v

let probe_metrics () =
  match probe () with
  | None -> []
  | Some p ->
      let sum a = Array.fold_left ( + ) 0 a in
      let agg =
        [
          ("sched.workers", p.workers);
          ("sched.deque_depth", sum p.deque_depths);
          ("sched.tasks", sum p.tasks);
          ("sched.steals", sum p.steals);
          ("sched.idle_spins", sum p.idle_spins);
        ]
      in
      let per_worker =
        List.concat
          (List.init p.workers (fun i ->
               [
                 (Printf.sprintf "sched.w%d.deque_depth" i, p.deque_depths.(i));
                 (Printf.sprintf "sched.w%d.tasks" i, p.tasks.(i));
                 (Printf.sprintf "sched.w%d.steals" i, p.steals.(i));
                 (Printf.sprintf "sched.w%d.idle_spins" i, p.idle_spins.(i));
               ]))
      in
      agg @ per_worker

(* Record the first exception (with its backtrace) and let every worker
   observe it: the failure flag doubles as the stop signal, so a raising
   task fails the whole run instead of wedging it. *)
let record_failure sched e =
  let bt = Printexc.get_raw_backtrace () in
  if Atomic.compare_and_set sched.failure None (Some (e, bt)) then
    Flight.note "run.failure"

let push_task sched t =
  let w = Domain.DLS.get worker_key in
  let w = if w >= 0 then w else 0 in
  Atomic.incr sched.live;
  Deque.push_bottom sched.deques.(w) t

(* A spawned child finished: deliver its last state to the parent frame
   and give back its token; the last token returned runs a parked sync. *)
let rec push_last l x =
  let xs = Atomic.get l in
  if not (Atomic.compare_and_set l xs (x :: xs)) then push_last l x

let child_returned_to sched frame child_last =
  push_last frame.spawned_lasts child_last;
  if Atomic.fetch_and_add frame.join (-1) = 1 then push_task sched frame.pending_sync

(* Emit the on_sync event for this frame if there is anything to join.
   Every child has returned, so nothing else touches the frame. *)
let emit_sync sched frame ~pre_state =
  let sp = Atomic.get frame.spawned_lasts and crf = frame.created_firsts in
  Atomic.set frame.spawned_lasts [];
  frame.created_firsts <- [];
  if sp <> [] || crf <> [] then
    set_cur
      (sched.cb.Events.on_sync ~cur:pre_state ~spawned_lasts:sp
         ~created_firsts:crf)
  else set_cur pre_state

(* Run one frame body (which must end by performing Sync and then its own
   epilogue) under the effect handler. Suspensions abandon the handler:
   match_with returns () and the worker moves on; resumption re-enters the
   captured continuation from a fresh task. *)
let rec exec_frame sched (body : frame -> unit) =
  let frame = new_frame () in
  Effect.Deep.match_with body frame
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Program.Spawn f ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Chaos.point Chaos.Spawn;
                  Metrics.incr m_spawns;
                  let child_state, cont_state = sched.cb.Events.on_spawn (get_cur ()) in
                  Atomic.incr frame.join;
                  push_task sched (fun () ->
                      set_cur child_state;
                      exec_frame sched (fun _child_frame ->
                          f ();
                          Effect.perform Program.Sync;
                          let child_last = get_cur () in
                          sched.cb.Events.on_returned ~cont:cont_state ~child_last;
                          child_returned_to sched frame child_last));
                  set_cur cont_state;
                  Effect.Deep.continue k ())
          | Program.Create f ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Chaos.point Chaos.Create;
                  Metrics.incr m_creates;
                  Trace_event.instant ~cat:"runtime" "create";
                  let h = Program.Handle.make () in
                  let child_state, cont_state = sched.cb.Events.on_create (get_cur ()) in
                  frame.created_firsts <- child_state :: frame.created_firsts;
                  push_task sched (fun () ->
                      set_cur child_state;
                      exec_frame sched (fun _child_frame ->
                          let r = f () in
                          Effect.perform Program.Sync;
                          let last = get_cur () in
                          sched.cb.Events.on_put last;
                          Program.Handle.fulfil h r ~last;
                          sched.cb.Events.on_returned ~cont:cont_state
                            ~child_last:last));
                  set_cur cont_state;
                  Effect.Deep.continue k h)
          | Program.Sync ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Chaos.point Chaos.Sync;
                  let pre_state = get_cur () in
                  (* a count of 1 is the strand's own token: no child is
                     outstanding, and only this strand can add one *)
                  if Atomic.get frame.join = 1 then begin
                    emit_sync sched frame ~pre_state;
                    Effect.Deep.continue k ()
                  end
                  else begin
                    frame.pending_sync <-
                      (fun () ->
                        Atomic.set frame.join 1;
                        emit_sync sched frame ~pre_state;
                        Effect.Deep.continue k ());
                    if Atomic.fetch_and_add frame.join (-1) = 1 then frame.pending_sync ()
                    (* else abandon: the worker returns to its scheduler loop,
                       and the last returning child pushes the parked sync *)
                  end)
          | Program.Get h ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  Chaos.point Chaos.Get;
                  Metrics.incr m_gets;
                  Trace_event.instant ~cat:"runtime" "get";
                  Program.Handle.claim_touch h;
                  let saved = get_cur () in
                  let resume () =
                    set_cur
                      (sched.cb.Events.on_get ~cur:saved
                         ~put:(Program.Handle.last_exn h));
                    Effect.Deep.continue k (Program.Handle.result_exn h)
                  in
                  if Program.Handle.add_waiter h (fun () -> push_task sched resume)
                  then () (* parked until the future is fulfilled *)
                  else resume ())
          | Program.Read loc ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  sched.cb.Events.on_read (get_cur ()) loc;
                  Effect.Deep.continue k ())
          | Program.Write loc ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  sched.cb.Events.on_write (get_cur ()) loc;
                  Effect.Deep.continue k ())
          | Program.Work n ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  sched.cb.Events.on_work (get_cur ()) n;
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let find_task sched me =
  let steal () =
    let n = Array.length sched.deques in
    let rec try_steal i =
      if i >= n then None
      else
        let victim = (me + 1 + i) mod n in
        match Deque.steal_top sched.deques.(victim) with
        | Some t ->
            Metrics.incr m_steals;
            if Telemetry.armed () then begin
              let st = sched.wstats.(me) in
              st.p_steals <- st.p_steals + 1
            end;
            Trace_event.instant ~cat:"runtime" "steal";
            Flight.note ~arg:victim "steal";
            Chaos.point Chaos.Steal;
            Some t
        | None -> try_steal (i + 1)
    in
    try_steal 0
  in
  let own () = Deque.pop_bottom sched.deques.(me) in
  (* chaos can invert the pop-before-steal preference, forcing help-first
     schedules (remote continuations) that rarely arise naturally *)
  if Chaos.force_steal () then
    match steal () with Some t -> Some t | None -> own ()
  else match own () with Some t -> Some t | None -> steal ()

let worker_loop sched me =
  Domain.DLS.set worker_key me;
  Metrics.domain_enter ();
  let st = sched.wstats.(me) in
  let idle_spins = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get sched.quiescent || Atomic.get sched.failure <> None then
      continue_ := false
    else begin
      match
        (* a raise from the scheduler itself (e.g. an injected steal
           fault) must fail the run, not kill the domain *)
        try find_task sched me
        with e ->
          record_failure sched e;
          None
      with
      | Some t ->
          idle_spins := 0;
          Metrics.incr m_tasks;
          if Telemetry.armed () then st.p_tasks <- st.p_tasks + 1;
          (try
             Chaos.point Chaos.Task;
             Trace_event.with_span ~cat:"runtime" "task" t
           with e -> record_failure sched e);
          if Atomic.fetch_and_add sched.live (-1) = 1 then
            Atomic.set sched.quiescent true
      | None ->
          incr idle_spins;
          if Telemetry.armed () then st.p_idle_spins <- st.p_idle_spins + 1;
          if !idle_spins < 100 then Domain.cpu_relax ()
          else begin
            idle_spins := 0;
            Unix.sleepf 1e-4
          end
    end
  done;
  Metrics.domain_exit ()

let run ?workers cb ~root main =
  let nw =
    match workers with
    | Some n when n >= 1 -> n
    | Some _ -> invalid_arg "Par_exec.run: workers must be >= 1"
    | None -> Domain.recommended_domain_count ()
  in
  let sched =
    {
      cb;
      deques = Array.init nw (fun _ -> Deque.create ());
      wstats =
        Array.init nw (fun _ ->
            { p_tasks = 0; p_steals = 0; p_idle_spins = 0 });
      live = Atomic.make 0;
      quiescent = Atomic.make false;
      failure = Atomic.make None;
    }
  in
  Atomic.set live_sched (Some sched);
  (* with the run-start and first-failure notes, a crash window is never
     empty, whatever the schedule *)
  Flight.note ~arg:nw "run.start";
  let result = ref None in
  let final = ref root in
  (* the root task *)
  Atomic.incr sched.live;
  Deque.push_bottom sched.deques.(0) (fun () ->
      set_cur root;
      exec_frame sched (fun _root_frame ->
          let r = main () in
          Effect.perform Program.Sync;
          let last = get_cur () in
          cb.Events.on_put last;
          result := Some r;
          final := last));
  Fun.protect ~finally:(fun () ->
      (* freeze the end-of-run probe before unpublishing the scheduler *)
      Atomic.set last_probe_v (Some (probe_of_sched sched));
      Atomic.set live_sched None)
  @@ fun () ->
  let others = List.init (nw - 1) (fun i -> Domain.spawn (fun () -> worker_loop sched (i + 1))) in
  worker_loop sched 0;
  List.iter Domain.join others;
  (match Atomic.get sched.failure with
  | Some (e, bt) ->
      (* cancel cleanly: every worker has stopped on the failure flag;
         drain the queued-but-unstarted tasks (and any continuations they
         capture) so nothing lingers, then surface the first exception at
         the join with its original backtrace *)
      Array.iter
        (fun d ->
          let rec drain () =
            match Deque.steal_top d with Some _ -> drain () | None -> ()
          in
          drain ())
        sched.deques;
      (* injected chaos faults are expected synthetic failures and would
         bury the flight window of a real crash behind them *)
      (match e with
      | Sfr_chaos.Chaos.Injected _ -> ()
      | _ -> Flight.crash_dump ~reason:"uncaught executor exception");
      Printexc.raise_with_backtrace e bt
  | None -> ());
  match !result with
  | Some r -> (r, !final)
  | None ->
      raise
        (Program.Unstructured_use
           "parallel execution reached quiescence without completing: the \
            program deadlocks (futures are not structured)")
