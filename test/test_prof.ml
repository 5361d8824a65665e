(* Tests for the perf-telemetry layer: Prof latency histograms wired into
   the reachability query, GC attribution deltas, the flight recorder's
   crash dump, and the Bench_schema/perfdiff regression gate. *)

module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof
module Flight = Sfr_obs.Flight
module Json_min = Sfr_obs.Json_min
module Bs = Sfr_harness.Bench_schema
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Events = Sfr_runtime.Events
module Program = Sfr_runtime.Program
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Synthetic = Sfr_workloads.Synthetic

let check = Alcotest.check

(* -- Prof histograms --------------------------------------------------- *)

let run_sf_order () =
  let t = Synthetic.generate ~seed:11 ~ops:400 ~depth:6 ~locs:24 () in
  let inst = Synthetic.instantiate t in
  let det = Sf_order.make () in
  let (), _ =
    Serial_exec.run det.Detector.callbacks ~root:det.Detector.root
      inst.Synthetic.program
  in
  det

let test_query_histograms_partition_queries () =
  Metrics.reset_all ();
  Metrics.enable ();
  Prof.enable ();
  let det = run_sf_order () in
  Prof.disable ();
  let m = det.Detector.metrics () in
  let get name = Option.value ~default:0 (List.assoc_opt name m) in
  let total = det.Detector.queries () in
  check Alcotest.bool "ran some queries" true (total > 0);
  (* every Algorithm-1 query records into exactly one per-case timer, so
     the histogram populations partition the query count like the plain
     case counters do *)
  check Alcotest.int "per-case latency observations partition the queries"
    total
    (get "prof.reach.query.same_future.ns.count"
    + get "prof.reach.query.cp.ns.count"
    + get "prof.reach.query.gp.ns.count");
  check Alcotest.bool "history writes were timed" true
    (get "prof.history.write.ns.count" > 0)

let test_disabled_prof_records_nothing () =
  Metrics.reset_all ();
  Metrics.enable ();
  Prof.disable ();
  let det = run_sf_order () in
  let m = det.Detector.metrics () in
  let prof_obs =
    List.fold_left
      (fun acc (name, v) ->
        if
          String.length name > 5
          && String.sub name 0 5 = "prof."
          && Filename.check_suffix name ".count"
        then acc + v
        else acc)
      0 m
  in
  check Alcotest.int "no latency observations while disabled" 0 prof_obs;
  check Alcotest.bool "queries still ran" true (det.Detector.queries () > 0)

let test_start_is_sentinel_when_disabled () =
  Prof.disable ();
  check Alcotest.int "disabled start returns 0" 0 (Prof.start ());
  Prof.enable ();
  check Alcotest.bool "enabled start returns a real timestamp" true
    (Prof.start () > 0);
  Prof.disable ()

(* -- GC attribution ---------------------------------------------------- *)

let test_gc_delta_plausibility () =
  let base = Prof.gc_snapshot () in
  (* force minor allocation the optimizer cannot remove *)
  let acc = ref [] in
  for i = 1 to 10_000 do
    acc := (i, string_of_int i) :: !acc
  done;
  let d = Prof.gc_delta base in
  check Alcotest.bool "kept the allocations live" true (List.length !acc > 0);
  List.iter
    (fun (name, v) ->
      check Alcotest.bool (name ^ " is non-negative") true (v >= 0))
    d;
  let get name = Option.value ~default:0 (List.assoc_opt name d) in
  check Alcotest.bool "allocation shows up in gc.minor_words" true
    (get "gc.minor_words" > 0)

let test_detector_metrics_include_gc () =
  Metrics.reset_all ();
  Metrics.enable ();
  let det = run_sf_order () in
  let m = det.Detector.metrics () in
  check Alcotest.bool "detector run allocated" true
    (Option.value ~default:0 (List.assoc_opt "gc.minor_words" m) > 0)

(* -- flight recorder --------------------------------------------------- *)

let test_flight_ring_bounded_and_ordered () =
  Flight.clear ();
  Flight.arm ();
  for i = 1 to (3 * Flight.capacity) + 7 do
    Flight.note ~arg:i "test.flood"
  done;
  let es = Flight.entries () in
  check Alcotest.bool "ring retains at most its capacity" true
    (List.length es <= Flight.capacity);
  check Alcotest.bool "ring is full after a flood" true
    (List.length es = Flight.capacity);
  let rec sorted = function
    | (a : Flight.entry) :: (b :: _ as rest) ->
        a.Flight.ts_ns <= b.Flight.ts_ns && sorted rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "entries are oldest-first" true (sorted es);
  (* the retained window is the most recent writes *)
  (match List.rev es with
  | last :: _ ->
      check Alcotest.int "newest surviving arg" ((3 * Flight.capacity) + 7)
        last.Flight.arg
  | [] -> Alcotest.fail "no entries");
  Flight.clear ()

let test_flight_disarmed_records_nothing () =
  Flight.clear ();
  Flight.disarm ();
  Flight.note "test.invisible";
  check Alcotest.int "nothing recorded while disarmed" 0
    (List.length (Flight.entries ()));
  Flight.arm ()

let test_flight_crash_dump_on_raising_parallel_run () =
  let path = Filename.temp_file "sfr_flight" ".json" in
  Sys.remove path;
  Flight.clear ();
  Flight.arm ();
  Flight.reset_crash_guard ();
  Flight.set_crash_path (Some path);
  let boom = Failure "injected task failure" in
  let program () =
    let h =
      Program.create (fun () ->
          Program.work 1;
          raise boom)
    in
    Program.get h
  in
  (match
     Par_exec.run ~workers:2 Events.null ~root:Events.Unit_state program
   with
  | _ -> Alcotest.fail "expected the task exception to surface at the join"
  | exception Failure _ -> ());
  Flight.set_crash_path None;
  Flight.reset_crash_guard ();
  check Alcotest.bool "crash dump file written" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  match Json_min.parse s with
  | Error e -> Alcotest.failf "crash dump is not valid JSON: %s" e
  | Ok doc -> (
      match Json_min.member "traceEvents" doc with
      | Some (Json_min.Arr events) ->
          (* the executor notes its start and its first failure, so the
             window holds both whether or not any task was stolen *)
          let names =
            List.filter_map
              (fun e ->
                match Json_min.member "name" e with
                | Some (Json_min.Str n) -> Some n
                | _ -> None)
              events
          in
          check Alcotest.bool "dump holds the pre-crash window" true
            (List.mem "run.start" names && List.mem "run.failure" names)
      | _ -> Alcotest.fail "crash dump has no traceEvents array")

let test_flight_crash_dump_once () =
  let path = Filename.temp_file "sfr_flight_once" ".json" in
  Flight.clear ();
  Flight.reset_crash_guard ();
  Flight.set_crash_path (Some path);
  Flight.note "test.first";
  Flight.crash_dump ~reason:"test first";
  let size1 = (Unix.stat path).Unix.st_size in
  Flight.note "test.second";
  Flight.crash_dump ~reason:"test second (must be ignored)";
  let size2 = (Unix.stat path).Unix.st_size in
  Flight.set_crash_path None;
  Flight.reset_crash_guard ();
  Sys.remove path;
  check Alcotest.int "second crash_dump did not rewrite the file" size1 size2

(* -- Bench_schema round-trip ------------------------------------------- *)

let entry ?(mad = Some 0.0001) ?(workload = "w") ?(detector = "d") median =
  {
    Bs.workload;
    detector;
    repeats = 3;
    warmup = 1;
    median;
    mad;
    mean = median;
    stddev = Some 0.00005;
    samples = [ median; median +. 0.0001; median -. 0.0001 ];
    queries = 42;
    reach_words = 100;
    history_words = 200;
    max_readers = 3;
    racy_locations = 0;
    metrics = [ ("reach.query.gp", 7); ("gc.minor_words", 1234) ];
  }

let file ?(version = Bs.version) entries =
  {
    Bs.version;
    env =
      {
        Bs.git_sha = "deadbeef";
        ocaml_version = Sys.ocaml_version;
        word_size = Sys.word_size;
        domains = 4;
        scale = "tiny";
      };
    entries;
  }

let test_schema_round_trip () =
  (* hostile names: quote, backslash, control char, non-ASCII byte *)
  let nasty = "w\"x\\y\x01z\xc3\xa9" in
  let t = file [ entry 0.5; entry ~workload:nasty ~detector:"d\"2" 0.25 ] in
  match Bs.of_json (Bs.to_json t) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok t' ->
      check Alcotest.int "version" Bs.version t'.Bs.version;
      check Alcotest.string "git sha" "deadbeef" t'.Bs.env.Bs.git_sha;
      check Alcotest.int "entry count" 2 (List.length t'.Bs.entries);
      let e = List.nth t'.Bs.entries 1 in
      check Alcotest.string "escaped workload survives" nasty e.Bs.workload;
      check Alcotest.string "escaped detector survives" "d\"2" e.Bs.detector;
      check (Alcotest.float 1e-12) "median survives" 0.25 e.Bs.median;
      check Alcotest.int "metrics survive" 2 (List.length e.Bs.metrics);
      check Alcotest.(option (float 1e-12)) "mad survives" (Some 0.0001)
        e.Bs.mad

let test_schema_null_spread_for_single_repeat () =
  let m =
    {
      Sfr_harness.Runner.seconds = 1.0;
      stddev = 0.0;
      median = 1.0;
      mad = 0.0;
      samples = [ 1.0 ];
      warmup = 1;
      queries = 0;
      reach_words = 0;
      reach_table_words = 0;
      history_words = 0;
      max_readers = 0;
      racy_locations = 0;
      metrics = [];
    }
  in
  let e = Bs.of_measurement ~workload:"w" ~detector:"d" ~repeats:1 m in
  check Alcotest.(option (float 0.0)) "mad omitted for repeats=1" None e.Bs.mad;
  check
    Alcotest.(option (float 0.0))
    "stddev omitted for repeats=1" None e.Bs.stddev;
  (* and the JSON spells it null, which reads back as None *)
  let t = file [ e ] in
  match Bs.of_json (Bs.to_json t) with
  | Error err -> Alcotest.failf "round trip failed: %s" err
  | Ok t' ->
      check
        Alcotest.(option (float 0.0))
        "null mad parses back as None" None
        (List.hd t'.Bs.entries).Bs.mad

(* -- perfdiff verdicts -------------------------------------------------- *)

let diff_exn old_ new_ =
  match Bs.diff ~old_ ~new_ with
  | Ok d -> d
  | Error e -> Alcotest.failf "diff failed: %s" e

let only_verdict d =
  match d.Bs.deltas with
  | [ x ] -> x.Bs.verdict
  | _ -> Alcotest.fail "expected exactly one compared config"

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Bs.Improved -> Format.pp_print_string ppf "Improved"
      | Bs.Unchanged -> Format.pp_print_string ppf "Unchanged"
      | Bs.Regressed -> Format.pp_print_string ppf "Regressed")
    ( = )

let test_perfdiff_clean () =
  let d = diff_exn (file [ entry 1.0 ]) (file [ entry 1.0 ]) in
  check verdict "identical medians" Bs.Unchanged (only_verdict d);
  check Alcotest.bool "no regression" false (Bs.has_regression d)

let test_perfdiff_regression () =
  let d = diff_exn (file [ entry 1.0 ]) (file [ entry 2.0 ]) in
  check verdict "2x slowdown" Bs.Regressed (only_verdict d);
  check Alcotest.bool "regression flagged" true (Bs.has_regression d)

let test_perfdiff_improvement () =
  let d = diff_exn (file [ entry 1.0 ]) (file [ entry 0.5 ]) in
  check verdict "2x speedup" Bs.Improved (only_verdict d);
  check Alcotest.bool "improvement is not a regression" false
    (Bs.has_regression d)

let test_perfdiff_noise_tolerance () =
  (* +5% is inside the 10% floor *)
  let d = diff_exn (file [ entry 1.0 ]) (file [ entry 1.05 ]) in
  check verdict "5% is noise" Bs.Unchanged (only_verdict d);
  (* +15% clears the floor with a tiny MAD... *)
  let d = diff_exn (file [ entry 1.0 ]) (file [ entry 1.15 ]) in
  check verdict "15% with tight MAD" Bs.Regressed (only_verdict d);
  (* ...but not when either run was noisy: 3 x MAD(0.1) = 0.3 gate *)
  let d =
    diff_exn (file [ entry ~mad:(Some 0.1) 1.0 ]) (file [ entry 1.15 ])
  in
  check verdict "15% inside 3 MADs" Bs.Unchanged (only_verdict d);
  (* single-repeat files (mad = None) fall back to the 10% floor *)
  let d = diff_exn (file [ entry ~mad:None 1.0 ]) (file [ entry ~mad:None 1.2 ]) in
  check verdict "20% with unknown spread" Bs.Regressed (only_verdict d)

let test_perfdiff_added_removed () =
  let d =
    diff_exn
      (file [ entry 1.0; entry ~workload:"gone" 1.0 ])
      (file [ entry 1.0; entry ~workload:"fresh" 1.0 ])
  in
  check Alcotest.int "one compared" 1 (List.length d.Bs.deltas);
  check
    Alcotest.(list (pair string string))
    "added" [ ("fresh", "d") ] d.Bs.added;
  check
    Alcotest.(list (pair string string))
    "removed"
    [ ("gone", "d") ]
    d.Bs.removed

let test_perfdiff_schema_mismatch () =
  (match Bs.diff ~old_:(file ~version:1 [ entry 1.0 ]) ~new_:(file [ entry 1.0 ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v1 vs v2 must not compare");
  match Bs.of_json {|{"schema_version":1,"env":{},"entries":[]}|} with
  | Error msg ->
      check Alcotest.bool "error names the version" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "v1 file must be rejected"

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "query histograms partition queries" `Quick
            test_query_histograms_partition_queries;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_prof_records_nothing;
          Alcotest.test_case "disabled start is the 0 sentinel" `Quick
            test_start_is_sentinel_when_disabled;
        ] );
      ( "gc",
        [
          Alcotest.test_case "delta plausibility" `Quick
            test_gc_delta_plausibility;
          Alcotest.test_case "detector metrics include gc" `Quick
            test_detector_metrics_include_gc;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounded and ordered" `Quick
            test_flight_ring_bounded_and_ordered;
          Alcotest.test_case "disarmed records nothing" `Quick
            test_flight_disarmed_records_nothing;
          Alcotest.test_case "crash dump on raising parallel run" `Quick
            test_flight_crash_dump_on_raising_parallel_run;
          Alcotest.test_case "crash dump fires once" `Quick
            test_flight_crash_dump_once;
        ] );
      ( "schema",
        [
          Alcotest.test_case "round trip with hostile names" `Quick
            test_schema_round_trip;
          Alcotest.test_case "single repeat has null spread" `Quick
            test_schema_null_spread_for_single_repeat;
        ] );
      ( "perfdiff",
        [
          Alcotest.test_case "clean" `Quick test_perfdiff_clean;
          Alcotest.test_case "regression" `Quick test_perfdiff_regression;
          Alcotest.test_case "improvement" `Quick test_perfdiff_improvement;
          Alcotest.test_case "noise tolerance" `Quick
            test_perfdiff_noise_tolerance;
          Alcotest.test_case "added and removed configs" `Quick
            test_perfdiff_added_removed;
          Alcotest.test_case "schema mismatch rejected" `Quick
            test_perfdiff_schema_mismatch;
        ] );
    ]
