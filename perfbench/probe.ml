(* Instruments the benchmark wraps around the program's public entry
   points: a monotonic clock, peak RSS, an event counter, and a
   callbacks wrapper that times the detector's reachability and
   access-history hooks. All of it lives in the benchmark; the program
   is run as shipped. *)

module Events = Sfr_runtime.Events

let now_ns = Sfr_obs.Prof.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Peak resident set of a process in MiB, from /proc; [None] when the
   kernel does not expose it. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> Some (float_of_int kb /. 1024.0))
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* Reset this process's peak-RSS mark, so that a later [peak_rss_mb]
   covers only what runs after the call (Linux 4.0 and later; a no-op
   where the kernel refuses). *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* Counts the program events a detector sees: spawn, create, sync,
   get, read and write. Serial use only. *)
let event_counter () =
  let n = ref 0 in
  let tick () = incr n in
  ( n,
    {
      Events.null with
      on_spawn = (fun s -> tick (); (s, s));
      on_create = (fun s -> tick (); (s, s));
      on_sync = (fun ~cur ~spawned_lasts:_ ~created_firsts:_ -> tick (); cur);
      on_get = (fun ~cur ~put:_ -> tick (); cur);
      on_read = (fun _ _ -> tick ());
      on_write = (fun _ _ -> tick ());
    } )

(* -- the layer probe ---------------------------------------------------- *)

(* Per-domain accumulators, so the probe adds no shared writes to the
   program's hot path. *)
type acc = {
  mutable reach_calls : int;
  mutable reach_ns : int;
  mutable reads : int;
  mutable writes : int;
  mutable sampled : int;  (** accesses whose hook was timed *)
  mutable sampled_ns : int;
}

let fresh () =
  { reach_calls = 0; reach_ns = 0; reads = 0; writes = 0; sampled = 0; sampled_ns = 0 }

let registry : acc list ref = ref []
let registry_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      Mutex.protect registry_mu (fun () -> registry := a :: !registry);
      a)

(* One access in [sample_every] has its hook timed; the busy time is
   scaled up by the exact access count. *)
let sample_every = 16

type totals = {
  t_reach_calls : int;
  t_reach_s : float;
  t_reads : int;
  t_writes : int;
  t_history_s : float;
}

(* Sum every domain's accumulators and reset them. Call between jobs,
   when no executor domain is running. *)
let harvest () =
  let mine = Domain.DLS.get key in
  Mutex.protect registry_mu (fun () ->
      let rc = ref 0 and rns = ref 0 and rd = ref 0 and wr = ref 0 in
      let hist = ref 0.0 in
      List.iter
        (fun a ->
          rc := !rc + a.reach_calls;
          rns := !rns + a.reach_ns;
          rd := !rd + a.reads;
          wr := !wr + a.writes;
          if a.sampled > 0 then
            hist :=
              !hist
              +. float_of_int a.sampled_ns
                 *. float_of_int (a.reads + a.writes)
                 /. float_of_int a.sampled;
          a.reach_calls <- 0;
          a.reach_ns <- 0;
          a.reads <- 0;
          a.writes <- 0;
          a.sampled <- 0;
          a.sampled_ns <- 0)
        !registry;
      (* the executor's other domains have exited: drop their accumulators *)
      registry := [ mine ];
      {
        t_reach_calls = !rc;
        t_reach_s = float_of_int !rns *. 1e-9;
        t_reads = !rd;
        t_writes = !wr;
        t_history_s = !hist *. 1e-9;
      })

let timed_reach f =
  let a = Domain.DLS.get key in
  let t0 = now_ns () in
  let r = f () in
  a.reach_ns <- a.reach_ns + (now_ns () - t0);
  a.reach_calls <- a.reach_calls + 1;
  r

let timed_access hook s loc ~write =
  let a = Domain.DLS.get key in
  let n = a.reads + a.writes in
  if write then a.writes <- a.writes + 1 else a.reads <- a.reads + 1;
  if n mod sample_every = 0 then begin
    let t0 = now_ns () in
    hook s loc;
    a.sampled_ns <- a.sampled_ns + (now_ns () - t0);
    a.sampled <- a.sampled + 1
  end
  else hook s loc

(* [cb] with its reachability hooks (spawn, create, sync, get, put,
   returned) and access hooks (read, write) timed. *)
let wrap (cb : Events.callbacks) =
  {
    cb with
    Events.on_spawn = (fun s -> timed_reach (fun () -> cb.Events.on_spawn s));
    on_create = (fun s -> timed_reach (fun () -> cb.Events.on_create s));
    on_sync =
      (fun ~cur ~spawned_lasts ~created_firsts ->
        timed_reach (fun () -> cb.Events.on_sync ~cur ~spawned_lasts ~created_firsts));
    on_get = (fun ~cur ~put -> timed_reach (fun () -> cb.Events.on_get ~cur ~put));
    on_put = (fun s -> timed_reach (fun () -> cb.Events.on_put s));
    on_returned =
      (fun ~cont ~child_last ->
        timed_reach (fun () -> cb.Events.on_returned ~cont ~child_last));
    on_read = (fun s loc -> timed_access cb.Events.on_read s loc ~write:false);
    on_write = (fun s loc -> timed_access cb.Events.on_write s loc ~write:true);
  }
