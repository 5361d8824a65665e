(* serve-stream: a closed loop of sessions through a real
   [racedetect serve] daemon over Unix sockets, plus the same detection
   replayed in process for the Figure-4 ratios and the ledger. *)

module Events = Sfr_runtime.Events
module Serial_exec = Sfr_runtime.Serial_exec
module Detector = Sfr_detect.Detector
module Frame = Sfr_serve.Frame
module Recorder = Sfr_eventlog.Recorder
module Reader = Sfr_eventlog.Reader
module Replay = Sfr_eventlog.Replay
module Stream_replay = Sfr_eventlog.Stream_replay
module Metrics = Sfr_obs.Metrics

let scale = Sfr_workloads.Workload.Small
let connections = 2
let pool = 1

(* The daemon checks each session with one shard. With two, it spawns a
   shard domain on every batch flush, and on a 2-vCPU machine that made
   the served latencies and throughput drift by up to 30% from run to
   run; the cost of the two-shard path is measured in process instead,
   by the replay configurations below. *)
let daemon_shards = 1
let access_batch = 8192 (* the daemon's setting *)
let daemon_flags = [ "--pool"; string_of_int pool; "--shards"; string_of_int daemon_shards ]
let min_sessions = 1000
let min_replay_passes = 8
let frame_bytes = 65536
let session_timeout_s = 30.0

type image = {
  label : string;
  bytes : Bytes.t;
  mem_base : int;
  program_events : int;  (** spawn/create/sync/get/read/write *)
  expected : Account.expected;  (** [events]: log events a verdict covers *)
}

(* Record one program serially into a .sflog image while the vc-order
   oracle watches the same execution. *)
let record ~dir (name, inject) =
  let w = Option.get (Sfr_workloads.Registry.find name) in
  let inst = w.Sfr_workloads.Workload.instantiate ~inject_race:inject scale in
  let label = if inject then name ^ "+race" else name in
  let path = Printf.sprintf "%s/%s.sflog" dir label in
  let recorder, rcb, rroot = Recorder.create ~path () in
  let det = Detect.detector "vc-order" () in
  let n, counter = Probe.event_counter () in
  ignore
    (Serial_exec.run
       (Events.pair rcb (Events.pair counter det.Detector.callbacks))
       ~root:(Events.Pair_state (rroot, Events.Pair_state (Events.Unit_state, det.Detector.root)))
       inst.Sfr_workloads.Workload.program);
  let stats = Recorder.close recorder in
  if (not inject) && not (inst.Sfr_workloads.Workload.verify ()) then
    failwith ("perfbench: recorded run of " ^ name ^ " fails verify");
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let mem_base = inst.Sfr_workloads.Workload.mem_base in
  {
    label;
    bytes;
    mem_base;
    program_events = !n;
    expected =
      {
        Account.racy = Account.normalise ~mem_base (Detector.racy_locations det);
        events = stats.Recorder.events;
      };
  }

(* -- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let running : daemon list ref = ref []

let stop_daemon d =
  let rss = Probe.peak_rss_mb (Some d.pid) in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  (try Sys.remove d.socket with Sys_error _ -> ());
  running := List.filter (fun d' -> d'.pid <> d.pid) !running;
  rss

(* No daemon outlives the benchmark, whatever path it exits by. *)
let () = at_exit (fun () -> List.iter (fun d -> ignore (stop_daemon d)) !running)

let start_daemon ~bin ~dir =
  let socket = Printf.sprintf "%s/serve-%d.sock" dir (Unix.getpid ()) in
  (try Sys.remove socket with Sys_error _ -> ());
  let log = Unix.openfile (dir ^ "/daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process bin
      (Array.of_list ([ bin; "serve"; "--socket"; socket ] @ daemon_flags))
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  running := d :: !running;
  let t0 = Probe.now_ns () in
  let rec wait () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
        if Probe.secs_since t0 > 20.0 then failwith "perfbench: daemon did not start";
        Unix.sleepf 0.001;
        wait ()
  in
  wait ();
  d

(* The daemon's counters, from an admin-plane METRICS request. *)
let scrape socket =
  match connect socket with
  | None -> failwith "perfbench: cannot reach the daemon for METRICS"
  | Some fd ->
      write_all fd (Frame.to_bytes Frame.Metrics_req);
      let dec = Frame.decoder () in
      let buf = Bytes.create 65536 in
      let rec loop () =
        match Frame.decoder_next dec with
        | Ok (Some (Frame.Metrics_reply text)) -> text
        | Ok (Some _) -> loop ()
        | Error e -> failwith ("perfbench: METRICS reply: " ^ Frame.error_to_string e)
        | Ok None -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> failwith "perfbench: daemon closed the METRICS connection"
            | n ->
                Frame.decoder_feed dec buf ~pos:0 ~len:n;
                loop ())
      in
      let text = Fun.protect ~finally:(fun () -> Unix.close fd) loop in
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ name; v ] when line <> "" && line.[0] <> '#' ->
              Option.map (fun v -> (name, v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' text)

(* Prometheus spelling of a metric name, as the daemon renders it. *)
let prom_name name =
  "sfr_" ^ String.map (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' as c -> c | _ -> '_') name

let prom_counter scrape_ name =
  Option.value (List.assoc_opt (prom_name name) scrape_) ~default:0

(* -- the closed loop ----------------------------------------------------- *)

type session = {
  img : int;
  ok : bool;
  t_hello : int;
  hello_ns : int;  (** HELLO sent to WELCOME received *)
  close_ns : int;  (** CLOSE sent to VERDICT received *)
  total_ns : int;  (** HELLO sent to VERDICT received *)
  credit_wait_ns : int;
}

type slot = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  s_img : int;
  s_t_hello : int;
  mutable welcome : int;
  mutable sent : int;
  mutable credit : int;
  mutable close_at : int;
  mutable waiting_since : int;
  mutable wait_ns : int;
}

(* Stream sessions on [connections] concurrent connections, each
   starting its next session when its verdict arrives, until [until]
   (monotonic ns) has passed and at least [min] sessions are done. *)
let closed_loop ~socket ~(images : image array) ~next_image ~until ~at_least ~account =
  let slots = Array.make connections None in
  let done_ = ref [] and n_done = ref 0 in
  let buf = Bytes.create 65536 in
  let finish i sl ~ok =
    (try Unix.close sl.fd with Unix.Unix_error _ -> ());
    slots.(i) <- None;
    let now = Probe.now_ns () in
    Account.record account ~ok ~what:("session " ^ images.(sl.s_img).label);
    incr n_done;
    done_ :=
      {
        img = sl.s_img;
        ok;
        t_hello = sl.s_t_hello;
        hello_ns = (if sl.welcome > 0 then sl.welcome - sl.s_t_hello else 0);
        close_ns = (if sl.close_at > 0 then now - sl.close_at else 0);
        total_ns = now - sl.s_t_hello;
        credit_wait_ns = sl.wait_ns;
      }
      :: !done_
  in
  let open_session i =
    match connect socket with
    | None -> failwith "perfbench: cannot connect to the daemon"
    | Some fd ->
        let img = next_image () in
        let t = Probe.now_ns () in
        write_all fd (Frame.to_bytes (Frame.Hello { version = Frame.protocol_version }));
        slots.(i) <-
          Some
            {
              fd;
              dec = Frame.decoder ();
              s_img = img;
              s_t_hello = t;
              welcome = 0;
              sent = 0;
              credit = 0;
              close_at = 0;
              waiting_since = 0;
              wait_ns = 0;
            }
  in
  let pump sl =
    let image = images.(sl.s_img).bytes in
    let len = Bytes.length image in
    while sl.welcome > 0 && sl.credit > 0 && sl.sent < len do
      let n = min frame_bytes (min sl.credit (len - sl.sent)) in
      write_all sl.fd (Frame.to_bytes (Frame.Data (Bytes.sub image sl.sent n)));
      sl.sent <- sl.sent + n;
      sl.credit <- sl.credit - n
    done;
    if sl.welcome > 0 && sl.sent = len && sl.close_at = 0 then begin
      write_all sl.fd (Frame.to_bytes Frame.Close);
      sl.close_at <- Probe.now_ns ()
    end
    else if sl.welcome > 0 && sl.sent < len && sl.waiting_since = 0 then
      sl.waiting_since <- Probe.now_ns ()
  in
  let on_frame i sl = function
    | Frame.Welcome { credit; _ } ->
        sl.welcome <- Probe.now_ns ();
        sl.credit <- sl.credit + credit;
        pump sl
    | Frame.Credit c ->
        if sl.waiting_since > 0 then begin
          sl.wait_ns <- sl.wait_ns + (Probe.now_ns () - sl.waiting_since);
          sl.waiting_since <- 0
        end;
        sl.credit <- sl.credit + c;
        pump sl
    | Frame.Verdict { code; races; events; _ } ->
        let expected = images.(sl.s_img).expected in
        finish i sl ~ok:(Account.session_ok ~expected ~code ~races ~events)
    | Frame.Reject _ -> finish i sl ~ok:false
    | _ -> ()
  in
  let rec drain i sl =
    match slots.(i) with
    | Some sl' when sl' == sl -> (
        match Frame.decoder_next sl.dec with
        | Ok (Some f) ->
            on_frame i sl f;
            drain i sl
        | Ok None -> ()
        | Error _ -> finish i sl ~ok:false)
    | _ -> ()
  in
  let hard_stop = Int.add until (int_of_float (120.0 *. 1e9)) in
  let continue_ () = Probe.now_ns () < until || !n_done < at_least in
  let active () = Array.exists Option.is_some slots in
  while (continue_ () || active ()) && Probe.now_ns () < hard_stop do
    Array.iteri (fun i s -> if s = None && continue_ () then open_session i) slots;
    let fds = Array.to_list slots |> List.filter_map (Option.map (fun sl -> sl.fd)) in
    let readable, _, _ =
      try Unix.select fds [] [] 1.0 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun i s ->
        match s with
        | None -> ()
        | Some sl ->
            if List.mem sl.fd readable then begin
              match Unix.read sl.fd buf 0 (Bytes.length buf) with
              | 0 | (exception Unix.Unix_error _) -> finish i sl ~ok:false
              | n ->
                  Frame.decoder_feed sl.dec buf ~pos:0 ~len:n;
                  drain i sl
            end
            else if Probe.secs_since sl.s_t_hello > session_timeout_s then finish i sl ~ok:false)
      slots
  done;
  Array.iteri (fun i s -> Option.iter (fun sl -> finish i sl ~ok:false) s) slots;
  List.rev !done_

(* -- in-process replays -------------------------------------------------- *)

let load image =
  match Reader.load_bytes image.bytes with
  | Ok r -> r
  | Error e -> failwith ("perfbench: recorded image unreadable: " ^ Sfr_eventlog.Log_format.error_to_string e)

let stream_verdict ~shards image =
  let s = Stream_replay.create ~shards ~access_batch () in
  Stream_replay.feed s image.bytes ~pos:0 ~len:(Bytes.length image.bytes);
  Stream_replay.step s;
  Stream_replay.close s ~abrupt:false

(* One in-process job: the image replayed under one configuration.
   base@2 is a replay with no client (decode and merge only), reach@2 a
   replay through reachability alone, full@2 and full@1 the daemon's
   streaming check with two shards and with one. *)
let replay_job ~account (images : image array) (i, config) =
  let image = images.(i) in
  let t0 = Probe.now_ns () in
  let ok =
    match config with
    | Plan.Base -> (
        match Replay.run (load image) ~callbacks:Events.null ~root:Events.Unit_state with
        | Ok n -> n = image.expected.Account.events
        | Error _ -> false)
    | Plan.Reach -> (
        let det = Detect.detector "sf-order" () in
        match
          Replay.run (load image)
            ~callbacks:(Sfr_harness.Runner.reach_only det.Detector.callbacks)
            ~root:det.Detector.root
        with
        | Ok _ -> Detector.racy_locations det = []
        | Error _ -> false)
    | Plan.Full2 | Plan.Full1 ->
        let v = stream_verdict ~shards:(if config = Plan.Full2 then 2 else 1) image in
        v.Stream_replay.status = Stream_replay.Complete
        && Account.normalise ~mem_base:image.mem_base v.Stream_replay.racy_locations
           = image.expected.Account.racy
  in
  let wall_s = Probe.secs_since t0 in
  Account.record account ~ok ~what:(Printf.sprintf "replay %s %s" image.label (Plan.config_name config));
  { Detect.config; input = i; wall_s }

(* -- set-up and run ------------------------------------------------------ *)

let setup ~bin ~dir =
  let images = Array.of_list (List.map (record ~dir) Plan.images) in
  let d = start_daemon ~bin ~dir in
  (* warm-up: every image once through the daemon *)
  let account = Account.create () in
  let k = ref 0 in
  let next () = let i = !k mod Array.length images in incr k; i in
  ignore
    (closed_loop ~socket:d.socket ~images ~next_image:next ~until:0 ~at_least:(Array.length images)
       ~account);
  if account.Account.failed > 0 then
    failwith ("perfbench: warm-up session failed: " ^ String.concat "; " account.Account.first_failures);
  (images, d)

let main ~seed ~seconds ~traced ~(spans : Spans.t) ~env ~setup_repeats =
  let bin = Filename.concat (Filename.dirname Sys.executable_name) "../bin/racedetect.exe" in
  let dir = ".perfbench" in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let setup_times = ref [] and last = ref None in
  for r = 1 to setup_repeats do
    let t0 = Probe.now_ns () in
    let images, d = setup ~bin ~dir in
    setup_times := Probe.secs_since t0 :: !setup_times;
    if r < setup_repeats then ignore (stop_daemon d) else last := Some (images, d)
  done;
  let images, daemon = Option.get !last in
  let n_images = Array.length images in
  let account = Account.create () in
  let next_image = Plan.session_sequence ~seed ~n_images in
  let t_start = Probe.now_ns () in
  let at share = Int.add t_start (int_of_float (share *. seconds *. 1e9)) in
  let loop ~until ~at_least =
    let t0 = Probe.now_ns () in
    let ss = closed_loop ~socket:daemon.socket ~images ~next_image ~until ~at_least ~account in
    (ss, Probe.secs_since t0)
  in
  let events_of ss =
    List.fold_left (fun acc s -> if s.ok then acc + images.(s.img).program_events else acc) 0 ss
  in
  (* the daemon phase: the untraced run spends 75% of its time here, and
     at least [min_sessions] sessions; the in-process ratios, which vary
     less, get the rest. The traced run splits a shorter phase between
     an untraced and a traced half. *)
  let sessions, phase_s, traced_part =
    if not traced then
      let ss, dt = loop ~until:(at 0.75) ~at_least:min_sessions in
      (ss, dt, None)
    else
      let ss_u, dt_u = loop ~until:(at 0.2) ~at_least:0 in
      let before = scrape daemon.socket in
      let ss_t, dt_t = loop ~until:(at 0.4) ~at_least:0 in
      let after = scrape daemon.socket in
      List.iter
        (fun s ->
          Spans.add spans "session" ~t0_ns:s.t_hello ~t1_ns:(s.t_hello + s.total_ns)
            ~attrs:[ ("image", images.(s.img).label); ("ok", string_of_bool s.ok) ])
        ss_t;
      (ss_u, dt_u, Some (ss_t, dt_t, before, after))
  in
  let rss = stop_daemon daemon in
  (* the in-process phase: Figure-4 ratios over the same images *)
  let passes = ref [] in
  let until = at 1.0 in
  while List.length !passes < min_replay_passes || Probe.now_ns () < until do
    let k = List.length !passes in
    let jobs =
      Spans.with_span spans "replay-pass" ~attrs:[ ("pass", string_of_int k) ] (fun _ ->
          List.map (replay_job ~account images)
            (Plan.pass_jobs ~seed ~pass:k (List.init n_images Fun.id)))
    in
    passes := jobs :: !passes
  done;
  let passes = List.rev !passes in
  let totals = List.map (fun s -> float_of_int s.total_ns *. 1e-6) sessions in
  let n = List.length totals in
  let tail_note =
    match Pstats.tail_percentile n with
    | Some p -> Printf.sprintf "HELLO to VERDICT; tail rule gives %s" (Pstats.percentile_name p)
    | None -> "HELLO to VERDICT; fewer than 10 samples beyond any percentile"
  in
  let e2e =
    [
      Output.metric "events_per_s"
        (float_of_int (events_of sessions) /. phase_s)
        ~samples:n ~note:(Printf.sprintf "events of correct sessions / %.3g s" phase_s);
    ]
    @ Detect.figure4 passes
    @ [
        Output.metric "verdict_p50_ms" (Pstats.percentile totals 500) ~samples:n
          ~note:"HELLO to VERDICT";
        Output.metric "verdict_p99_ms" (Pstats.percentile totals 990) ~samples:n ~note:tail_note;
        Output.metric "peak_rss_mb" (Option.value rss ~default:0.0) ~note:"the daemon";
        Output.summarised "setup_s" (List.rev !setup_times) ~note:"median of set-ups";
      ]
  in
  let layers =
    match traced_part with
    | None -> []
    | Some (ss_t, dt_t, before, after) ->
        let delta name = float_of_int (prom_counter after name - prom_counter before name) in
        let seq = List.map (fun s -> images.(s.img)) ss_t in
        (* the same session sequence, replayed in process as the daemon
           checks it, and once more with two shards for the shard-check
           count *)
        let t0 = Probe.now_ns () in
        List.iter (fun im -> ignore (stream_verdict ~shards:daemon_shards im)) seq;
        let eventlog_s = Probe.secs_since t0 in
        let m0 = Metrics.snapshot () in
        List.iter (fun im -> ignore (stream_verdict ~shards:2 im)) seq;
        let stream_metrics = Metrics.since m0 in
        (* and once more through the default detector with the layer
           probe around its hooks *)
        let l = Detect.ledger () in
        List.iter
          (fun im ->
            let det = Detect.detector "sf-order" () in
            let g0 = Gc.quick_stat () in
            ignore (Replay.run (load im) ~callbacks:(Probe.wrap det.Detector.callbacks) ~root:det.Detector.root);
            Detect.note_gc l g0;
            Detect.note_detector l ~probe:(Probe.harvest ()) ~metrics:(det.Detector.metrics ()) (Some det))
          seq;
        let per = float_of_int (max 1 (List.length ss_t)) in
        let session_s = List.fold_left (fun acc s -> acc +. (float_of_int s.total_ns *. 1e-9)) 0.0 ss_t in
        let med f = Pstats.median (List.map (fun s -> float_of_int (f s) *. 1e-6) ss_t) in
        let eps_u = float_of_int (events_of sessions) /. phase_s in
        let eps_t = float_of_int (events_of ss_t) /. dt_t in
        [
          Output.metric "runtime.self_s" 0.0 ~note:"not exercised (no executor in replay)";
          Output.metric "runtime.tasks" 0.0 ~note:"not exercised";
          Output.metric "runtime.steals" 0.0 ~note:"not exercised";
        ]
        @ Detect.detector_layer_metrics ~per l
        @ [
            Output.metric "eventlog.replay_s" (eventlog_s /. per)
              ~note:"in-process Stream_replay of the traced sessions";
            Output.metric "eventlog.stream.shard_checks"
              (float_of_int
                 (Option.value (List.assoc_opt "eventlog.stream.shard_checks" stream_metrics) ~default:0)
              /. per)
              ~note:"two-shard replay of the traced sessions";
            Output.metric "serve.hello_ms" (med (fun s -> s.hello_ns)) ~note:"median, HELLO to WELCOME";
            Output.metric "serve.credit_wait_s"
              (List.fold_left (fun acc s -> acc +. (float_of_int s.credit_wait_ns *. 1e-9)) 0.0 ss_t /. per);
            Output.metric "serve.close_to_verdict_ms" (med (fun s -> s.close_ns)) ~note:"median";
            Output.metric "serve.transport_s" ((session_s -. eventlog_s) /. per)
              ~note:"session time minus eventlog.replay_s";
            Output.metric "serve.frames.in" (delta "serve.frames.in" /. per) ~note:"daemon METRICS";
            Output.metric "serve.shed.sessions" (delta "serve.shed.sessions" /. per) ~note:"daemon METRICS";
            Output.metric "unattributed_s"
              (((float_of_int connections *. dt_t) -. session_s) /. per)
              ~note:"connection-seconds outside sessions";
            Output.metric "trace.overhead_x" (eps_u /. eps_t) ~note:"untraced / traced events_per_s";
          ]
  in
  let env =
    env
    @ [
        ("scale", "small");
        ("images", String.concat " " (Array.to_list (Array.map (fun i -> i.label) images)));
        ("oracle", "vc-order, serial");
        ("daemon", String.concat " " ("racedetect serve" :: daemon_flags));
        ("connections", string_of_int connections);
        ("sessions", string_of_int n);
      ]
  in
  (env, account, e2e, layers)
