(* The detect workloads, paper-suite and futures-dense: timed passes of
   detect jobs in process, each job one input under one configuration
   (Plan.config), checked against the serial vc-order oracle. *)

module Events = Sfr_runtime.Events
module Par_exec = Sfr_runtime.Par_exec
module Serial_exec = Sfr_runtime.Serial_exec
module Detector = Sfr_detect.Detector
module Synthetic = Sfr_workloads.Synthetic
module Metrics = Sfr_obs.Metrics

type inst = {
  program : unit -> unit;
  verify : unit -> bool option;  (** [None]: the input has no output check *)
  mem_base : int;
}

type input = { label : string; make : unit -> inst; expected : Account.expected }

let detector name =
  match Sfr_detect.Registry.find name with
  | Some e -> e.Sfr_detect.Registry.make
  | None -> failwith ("perfbench: detector not registered: " ^ name)

(* A serial oracle-grade detector on a fresh instance: racy locations
   and event count; also returns the instance for output checks. *)
let oracle ~by make =
  let inst = make () in
  let det = detector by () in
  let n, counter = Probe.event_counter () in
  ignore
    (Serial_exec.run (Events.pair counter det.Detector.callbacks)
       ~root:(Events.Pair_state (Events.Unit_state, det.Detector.root))
       inst.program);
  ( inst,
    {
      Account.racy =
        Account.normalise ~mem_base:inst.mem_base (Detector.racy_locations det);
      events = !n;
    } )

let paper_scale = Sfr_workloads.Workload.Default

let paper_input (name, inject) =
  let w =
    match Sfr_workloads.Registry.find name with
    | Some w -> w
    | None -> failwith ("perfbench: unknown program " ^ name)
  in
  let make () =
    let i = w.Sfr_workloads.Workload.instantiate ~inject_race:inject paper_scale in
    {
      program = i.Sfr_workloads.Workload.program;
      verify = (fun () -> if inject then None else Some (i.Sfr_workloads.Workload.verify ()));
      mem_base = i.Sfr_workloads.Workload.mem_base;
    }
  in
  let inst, expected = oracle ~by:"vc-order" make in
  if inst.verify () = Some false then failwith ("perfbench: oracle run of " ^ name ^ " fails verify");
  { label = (if inject then name ^ "+race" else name); make; expected }

(* futures-dense shape: about 10^5 operations and 9k futures each. *)
let synth_ops = 100_000
let synth_depth = 12
let synth_locs = 16384
let synth_count = 6

(* vc-order's clocks grow with the future count: on one of these
   programs it takes seconds and over a GiB, so the serial oracle here
   is the other oracle-grade detector, MultiBags. *)
let synth_oracle = "multibags"

let synthetic_input (seed, t) =
  let _, futures, _ = Synthetic.stats t in
  (* the oracle's run also fixes the checksum every later run must give *)
  let first = Synthetic.instantiate t in
  let _, expected =
    oracle ~by:synth_oracle (fun () ->
        { program = first.Synthetic.program; verify = (fun () -> None); mem_base = first.Synthetic.mem_base })
  in
  let checksum = first.Synthetic.checksum () in
  let make () =
    let i = Synthetic.instantiate t in
    {
      program = i.Synthetic.program;
      verify = (fun () -> Some (i.Synthetic.checksum () = checksum));
      mem_base = i.Synthetic.mem_base;
    }
  in
  { label = Printf.sprintf "synth-%d/%dfut" seed futures; make; expected }

(* Generation stops when the random tree closes, which for some seeds
   comes long before the operation budget. Such a program is too small
   to be futures-dense, so the next candidate seed is taken instead. *)
let synthetic_programs ~seed =
  let next = Plan.synthetic_candidates ~seed in
  let rec pick acc =
    if List.length acc = synth_count then List.rev acc
    else
      let s = next () in
      let t = Synthetic.generate ~seed:s ~ops:synth_ops ~depth:synth_depth ~locs:synth_locs () in
      let ops, _, _ = Synthetic.stats t in
      pick (if ops >= synth_ops * 9 / 10 then (s, t) :: acc else acc)
  in
  pick []

let inputs_of ~seed = function
  | Plan.Paper_suite -> List.map paper_input Plan.paper_inputs
  | Plan.Futures_dense -> List.map synthetic_input (synthetic_programs ~seed)
  | Plan.Serve_stream -> invalid_arg "Detect.inputs_of"

(* -- the per-layer ledger ----------------------------------------------- *)

(* Sums (and maxima, for gauges) over the traced jobs. *)
type ledger = {
  sums : (string, float) Hashtbl.t;
  maxs : (string, float) Hashtbl.t;
}

let ledger () = { sums = Hashtbl.create 32; maxs = Hashtbl.create 8 }

let add l k v =
  Hashtbl.replace l.sums k (v +. Option.value (Hashtbl.find_opt l.sums k) ~default:0.0)

let hi l k v =
  Hashtbl.replace l.maxs k (Float.max v (Option.value (Hashtbl.find_opt l.maxs k) ~default:0.0))

(* A sum is reported per [per] units of work (a pass, a session), so the
   row does not grow with the run's length; a maximum as is. *)
let get ?(per = 1.0) l k =
  match Hashtbl.find_opt l.sums k with
  | Some v -> v /. per
  | None -> Option.value (Hashtbl.find_opt l.maxs k) ~default:0.0

let counted =
  [
    "runtime.tasks"; "runtime.steals"; "om.relabels"; "om.depa.heap_spills";
    "history.lock.contended"; "history.cas.retry"; "history.write.fastpath";
  ]

(* Fold one traced detector run into the ledger: exact counts from
   [metrics], busy times from the probe. *)
let note_detector l ~(probe : Probe.totals) ~metrics (det : Detector.t option) =
  add l "reach.calls" (float_of_int probe.Probe.t_reach_calls);
  add l "reach.busy_s" probe.Probe.t_reach_s;
  add l "history.accesses" (float_of_int (probe.Probe.t_reads + probe.Probe.t_writes));
  add l "history.writes" (float_of_int probe.Probe.t_writes);
  add l "history.busy_s" probe.Probe.t_history_s;
  List.iter
    (fun k -> add l k (float_of_int (Option.value (List.assoc_opt k metrics) ~default:0)))
    counted;
  match det with
  | None -> ()
  | Some d ->
      add l "reach.queries" (float_of_int (d.Detector.queries ()));
      add l "reach.table_words" (float_of_int (d.Detector.reach_table_words ()));
      hi l "reach.words" (float_of_int (d.Detector.reach_words ()));
      hi l "history.words" (float_of_int (d.Detector.history_words ()));
      hi l "history.max_readers" (float_of_int (d.Detector.max_readers ()));
      add l "race.racy_locations" (float_of_int (List.length (Detector.racy_locations d)))

let note_gc l (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  add l "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  add l "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))

(* The detector-layer rows every workload reports, per [per] units of
   work. *)
let detector_layer_metrics ~per l =
  let writes = get l "history.writes" in
  List.map
    (fun k -> Output.metric k (get ~per l k))
    [
      "reach.calls"; "reach.busy_s"; "reach.queries"; "reach.table_words"; "reach.words";
      "om.relabels"; "om.depa.heap_spills"; "history.accesses"; "history.busy_s";
      "history.lock.contended"; "history.cas.retry"; "history.words";
      "history.max_readers"; "race.racy_locations"; "gc.minor_words";
      "gc.major_collections";
    ]
  @ [
      Output.metric "history.fastpath_ratio"
        (if writes > 0.0 then get l "history.write.fastpath" /. writes else 0.0)
        ~note:"fast-path hits / writes";
    ]

(* -- jobs ---------------------------------------------------------------- *)

type job = { config : Plan.config; input : int; wall_s : float }

let run_job ~traced ~account ~ledger:l (inputs : input array) (i, config) =
  let input = inputs.(i) in
  let inst = input.make () in
  let det = match config with Plan.Base -> None | _ -> Some (detector "sf-order" ()) in
  let cb, root =
    match det with
    | None -> (Events.null, Events.Unit_state)
    | Some d ->
        let cb = if traced then Probe.wrap d.Detector.callbacks else d.Detector.callbacks in
        ((if config = Plan.Reach then Sfr_harness.Runner.reach_only cb else cb), d.Detector.root)
  in
  let before = if traced && det = None then Metrics.snapshot () else [] in
  let g0 = Gc.quick_stat () in
  let workers = Plan.domains config in
  let t0 = Probe.now_ns () in
  ignore (Par_exec.run ~workers cb ~root inst.program);
  let wall_s = Probe.secs_since t0 in
  let reported =
    match det with None -> [] | Some d -> Account.normalise ~mem_base:inst.mem_base (Detector.racy_locations d)
  in
  let racy = match config with Plan.Full1 | Plan.Full2 -> Some reported | _ -> None in
  let ok = Account.job_ok ~expected:input.expected ~verified:(inst.verify ()) ~racy ~reported in
  Account.record account ~ok
    ~what:(Printf.sprintf "%s %s" input.label (Plan.config_name config));
  if traced then begin
    note_gc l g0;
    let probe = Probe.harvest () in
    let metrics =
      match det with Some d -> d.Detector.metrics () | None -> Metrics.since before
    in
    note_detector l ~probe ~metrics (match config with Plan.Base -> None | _ -> det);
    add l "job.capacity_s" (float_of_int workers *. wall_s);
    add l "job.wall_s" wall_s;
    add l "job.callback_s" (probe.Probe.t_reach_s +. probe.Probe.t_history_s)
  end;
  { config; input = i; wall_s }

(* -- set-up and run ------------------------------------------------------ *)

(* Each input's median time under [config] over [passes], for the
   inputs that ran: one slow job moves a sum but not a median. *)
let medians passes config =
  List.filter_map
    (fun (i, ts) -> if ts = [] then None else Some (i, Pstats.median ts))
    (List.map
       (fun i ->
         ( i,
           List.concat_map
             (List.filter_map (fun j -> if j.config = config && j.input = i then Some j.wall_s else None))
             passes ))
       (List.sort_uniq compare (List.concat_map (List.map (fun j -> j.input)) passes)))

(* The medians summed over the inputs: the time of one job of each. *)
let typical passes config = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 (medians passes config)

let spread_of f passes = Pstats.quartiles (List.map (fun p -> f [ p ]) passes)

(* The paper's Figure-4 ratios over passes of jobs; the quartiles are
   those of the per-pass ratios. *)
let figure4 passes =
  let row name a b note =
    let ratio ps = typical ps a /. typical ps b in
    Output.metric name (ratio passes) ~spread:(spread_of ratio passes) ~samples:(List.length passes) ~note
  in
  [
    row "overhead_x" Plan.Full2 Plan.Base "full@2 / base@2";
    row "reach_overhead_x" Plan.Reach Plan.Base "reach@2 / base@2";
    row "speedup_x" Plan.Full1 Plan.Full2 "full@1 / full@2";
  ]

type pass = { p_traced : bool; p_jobs : job list; p_wall_s : float }

let pass_inputs ~workload ~seed ~pass ~n_inputs =
  match workload with
  | Plan.Paper_suite -> Plan.paper_pass_inputs ~seed ~pass
  | _ -> List.init n_inputs Fun.id

let min_verdicts = 40

let setup ~workload ~seed =
  let inputs = Array.of_list (inputs_of ~seed workload) in
  (* warm-up: every input once, uninstrumented on two domains *)
  let scratch = Account.create () in
  Array.iteri
    (fun i _ -> ignore (run_job ~traced:false ~account:scratch ~ledger:(ledger ()) inputs (i, Plan.Base)))
    inputs;
  if scratch.Account.failed > 0 then
    failwith ("perfbench: warm-up job failed: " ^ String.concat "; " scratch.Account.first_failures);
  inputs

let run ~workload ~seed ~seconds ~traced ~(spans : Spans.t) ~setup_times ~inputs =
  let account = Account.create () in
  let l = ledger () in
  let n_inputs = Array.length inputs in
  (* the peak RSS row covers the timed jobs, not the set-up's oracle *)
  Probe.reset_peak_rss ();
  let t_start = Probe.now_ns () in
  let passes = ref [] in
  (* enough passes that an untraced run holds [min_verdicts] full@2 jobs;
     the traced run needs one untraced and one traced pass *)
  let per_pass =
    List.length (pass_inputs ~workload ~seed ~pass:0 ~n_inputs) * Plan.repeats Plan.Full2
  in
  let min_passes = if traced then 2 else (min_verdicts + per_pass - 1) / per_pass in
  let continue_ () =
    let elapsed = Probe.secs_since t_start in
    let n = List.length !passes in
    let mean = if n = 0 then 0.0 else elapsed /. float_of_int n in
    n < min_passes || elapsed +. mean <= seconds
  in
  Spans.with_span spans "run" ~attrs:[ ("workload", Plan.workload_name workload) ] (fun run_id ->
      while continue_ () do
        let k = List.length !passes in
        (* the traced run alternates untraced and traced passes, so the
           probe's own cost is measured in the same process *)
        let p_traced = traced && k mod 2 = 1 in
        let t0 = Probe.now_ns () in
        let jobs =
          Spans.with_span spans ~parent:run_id "pass"
            ~attrs:[ ("pass", string_of_int k); ("traced", string_of_bool p_traced) ]
            (fun pass_id ->
              List.map
                (fun (i, c) ->
                  Spans.with_span spans ~parent:pass_id "job"
                    ~attrs:[ ("input", inputs.(i).label); ("config", Plan.config_name c) ]
                    (fun _ -> run_job ~traced:p_traced ~account ~ledger:l inputs (i, c)))
                (Plan.pass_jobs ~seed ~pass:k (pass_inputs ~workload ~seed ~pass:k ~n_inputs)))
        in
        let p_wall_s = Probe.secs_since t0 in
        passes := { p_traced; p_jobs = jobs; p_wall_s } :: !passes
      done);
  let passes = List.rev !passes in
  let untraced = List.filter_map (fun p -> if p.p_traced then None else Some p.p_jobs) passes in
  let traced_jobs = List.filter_map (fun p -> if p.p_traced then Some p.p_jobs else None) passes in
  let full2_ms =
    List.concat_map
      (List.filter_map (fun j -> if j.config = Plan.Full2 then Some (j.wall_s *. 1e3) else None))
      untraced
  in
  let n_verdicts = List.length full2_ms in
  (* p99 needs 1000 jobs, which no detect run reaches. The tail row is
     p75: every run has at least [min_verdicts] full@2 jobs, so p75 has
     at least 10 beyond it, and a fixed percentile keeps the row
     comparable between runs of different lengths. *)
  let tail = Pstats.percentile full2_ms 750 in
  let tail_note =
    Printf.sprintf "p75 of full@2 jobs (%d beyond it; the tail rule allows %s)"
      (Pstats.beyond ~n:n_verdicts 750)
      (match Pstats.tail_percentile n_verdicts with Some p -> Pstats.percentile_name p | None -> "none")
  in
  (* events per second of full@2: the events of the inputs that ran over
     the time of one full@2 job of each *)
  let eps passes =
    let ms = medians passes Plan.Full2 in
    float_of_int (List.fold_left (fun acc (i, _) -> acc + inputs.(i).expected.Account.events) 0 ms)
    /. List.fold_left (fun acc (_, t) -> acc +. t) 0.0 ms
  in
  let e2e =
    [
      Output.metric "events_per_s" (eps untraced) ~spread:(spread_of eps untraced)
        ~samples:(List.length untraced) ~note:"events / full@2 time";
    ]
    @ figure4 untraced
    @ [
      Output.metric "verdict_p50_ms" (Pstats.percentile full2_ms 500) ~samples:n_verdicts
        ~note:"full@2 job latency";
      Output.metric "verdict_p99_ms" tail ~samples:n_verdicts ~note:tail_note;
      Output.metric "peak_rss_mb"
        (Option.value (Probe.peak_rss_mb None) ~default:0.0)
        ~note:"benchmark process during the timed jobs";
      Output.summarised "setup_s" setup_times ~note:"median of set-ups";
    ]
  in
  let layers =
    if not traced then []
    else begin
      let per = float_of_int (List.length traced_jobs) in
      let capacity = get ~per l "job.capacity_s" and callbacks = get ~per l "job.callback_s" in
      let traced_wall =
        List.fold_left (fun acc p -> if p.p_traced then acc +. p.p_wall_s else acc) 0.0 passes
      in
      let harness = (traced_wall /. per) -. get ~per l "job.wall_s" in
      let eps_t = eps traced_jobs and eps_u = eps untraced in
      [
        Output.metric "runtime.self_s" (capacity -. callbacks)
          ~note:"domain-seconds of jobs minus detector hooks";
        Output.metric "runtime.tasks" (get ~per l "runtime.tasks");
        Output.metric "runtime.steals" (get ~per l "runtime.steals");
      ]
      @ detector_layer_metrics ~per l
      @ List.map (fun k -> Output.metric k 0.0 ~note:"not exercised")
          [
            "eventlog.replay_s"; "eventlog.stream.shard_checks"; "serve.hello_ms";
            "serve.credit_wait_s"; "serve.close_to_verdict_ms"; "serve.transport_s";
            "serve.frames.in"; "serve.shed.sessions";
          ]
      @ [
          Output.metric "unattributed_s" harness
            ~note:(Printf.sprintf "harness between jobs, of %.6g domain-s" (capacity +. harness));
          Output.metric "trace.overhead_x" (eps_u /. eps_t)
            ~note:"untraced / traced events_per_s";
        ]
    end
  in
  (account, e2e, layers, List.length passes)
