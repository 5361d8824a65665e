(* Tests for the execution substrate: the serial (depth-first) executor,
   the multicore work-stealing executor, the dag recorder, and the DSL's
   structured-use enforcement. The synthetic program generator provides
   schedule-independent random programs to cross-check executors. *)

module Dag = Sfr_dag.Dag
module Dag_algo = Sfr_dag.Dag_algo
module Dag_check = Sfr_dag.Dag_check
module Events = Sfr_runtime.Events
module Program = Sfr_runtime.Program
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Synthetic = Sfr_workloads.Synthetic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let run_serial_traced ?(log = false) prog =
  let trace, cb, root = Trace.make ~log_accesses:log () in
  let result, _final = Serial_exec.run cb ~root prog in
  (result, trace)

(* ------------------------------------------------------------------ *)
(* Basic serial semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_serial_plain () =
  let result, trace = run_serial_traced (fun () -> 21 * 2) in
  check int "result" 42 result;
  check int "just the root node" 1 (Dag.n_nodes (Trace.dag trace));
  check bool "valid" true (Dag_check.validate_sf (Trace.dag trace) = [])

let rec fib n =
  if n < 2 then n
  else begin
    let a = ref 0 in
    Program.spawn (fun () -> a := fib (n - 1));
    let b = fib (n - 2) in
    Program.sync ();
    !a + b
  end

let test_serial_fib () =
  let result, trace = run_serial_traced (fun () -> fib 10) in
  check int "fib 10" 55 result;
  let dag = Trace.dag trace in
  check bool "valid SF" true (Dag_check.validate_sf dag = []);
  check int "one future (root)" 1 (Dag.n_futures dag);
  check bool "nontrivial dag" true (Dag.n_nodes dag > 100)

let test_serial_futures_pipeline () =
  let prog () =
    let h1 = Program.create (fun () -> 10) in
    let h2 = Program.create (fun () -> Program.get h1 * 2) in
    Program.get h2 + 1
  in
  let result, trace = run_serial_traced prog in
  check int "pipeline result" 21 result;
  let dag = Trace.dag trace in
  check int "three futures" 3 (Dag.n_futures dag);
  check bool "valid SF" true (Dag_check.validate_sf dag = [])

let test_serial_memory_counts () =
  let prog () =
    let a = Program.alloc 8 0 in
    for i = 0 to 7 do
      Program.wr a i i
    done;
    let s = ref 0 in
    for i = 0 to 7 do
      s := !s + Program.rd a i
    done;
    !s
  in
  let result, trace = run_serial_traced prog in
  check int "sum" 28 result;
  check int "writes" 8 (Trace.writes trace);
  check int "reads" 8 (Trace.reads trace)

let test_serial_access_log () =
  let prog () =
    let a = Program.alloc 2 0 in
    Program.wr a 0 1;
    ignore (Program.rd a 1);
    0
  in
  let _, trace = run_serial_traced ~log:true prog in
  let log = Trace.accesses trace in
  check int "two accesses" 2 (List.length log);
  check int "one write" 1
    (List.length (List.filter (fun a -> a.Trace.is_write) log))

let test_serial_unstructured_get_blocks () =
  (* a future that tries to get a sibling created later via a side cell:
     in a depth-first serial execution the cell is still empty, which the
     executor reports as unstructured use (assert false would fire first
     here, so we instead test the direct blocking case: a future getting
     its own not-yet-created... simplest: get inside the future of a
     handle that is running = impossible to build without side channels.
     We test the single-touch violation instead, plus Handle misuse. *)
  let prog () =
    let h = Program.create (fun () -> 5) in
    let x = Program.get h in
    let y = Program.get h in
    x + y
  in
  Alcotest.check_raises "single touch"
    (Program.Unstructured_use "get invoked twice on the same future handle")
    (fun () -> ignore (run_serial_traced prog))

let test_serial_exception_propagates () =
  let prog () = failwith "boom" in
  Alcotest.check_raises "exception" (Failure "boom") (fun () ->
      ignore (run_serial_traced prog))

(* Spawned children join at the next explicit sync; a frame end works too *)
let test_serial_implicit_sync () =
  let prog () =
    let cell = ref 0 in
    Program.spawn (fun () -> cell := 7)
    (* no explicit sync: frame end joins *);
    cell
  in
  let cell, trace = run_serial_traced prog in
  check int "joined at frame end" 7 !cell;
  let dag = Trace.dag trace in
  (* root, spawn child, continuation, frame-end sync *)
  check int "four nodes" 4 (Dag.n_nodes dag)

(* ------------------------------------------------------------------ *)
(* Parallel executor                                                    *)
(* ------------------------------------------------------------------ *)

let run_par_traced ~workers prog =
  let trace, cb, root = Trace.make () in
  let result, _final = Par_exec.run ~workers cb ~root prog in
  (result, trace)

let test_par_fib () =
  List.iter
    (fun workers ->
      let result, trace = run_par_traced ~workers (fun () -> fib 10) in
      check int "fib 10" 55 result;
      check bool "valid SF" true (Dag_check.validate_sf (Trace.dag trace) = []))
    [ 1; 2; 4 ]

let test_par_future_suspension () =
  (* help-first scheduling makes the parent reach the get before the
     future ran, exercising the park/resume path even with one worker *)
  let prog () =
    let h = Program.create (fun () -> fib 8) in
    Program.get h
  in
  List.iter
    (fun workers ->
      let result, _ = run_par_traced ~workers prog in
      check int "suspended get" 21 result)
    [ 1; 2 ]

let test_par_sync_suspension () =
  let prog () =
    let cell = ref 0 in
    Program.spawn (fun () -> cell := fib 8);
    Program.sync ();
    !cell
  in
  List.iter
    (fun workers ->
      let result, _ = run_par_traced ~workers prog in
      check int "suspended sync" 21 result)
    [ 1; 2 ]

let test_par_escaping_future () =
  (* the root returns while the created future may still be queued; run
     must wait for quiescence and record the future's put node *)
  let prog () =
    let _h = Program.create (fun () -> fib 6) in
    3
  in
  let result, trace = run_par_traced ~workers:2 prog in
  check int "result" 3 result;
  let dag = Trace.dag trace in
  check bool "future completed and recorded" true
    (Dag.last_of dag 1 <> None);
  check bool "valid" true (Dag_check.validate_sf dag = [])

let test_par_single_touch () =
  let prog () =
    let h = Program.create (fun () -> 5) in
    Program.get h + Program.get h
  in
  Alcotest.check_raises "single touch in parallel"
    (Program.Unstructured_use "get invoked twice on the same future handle")
    (fun () -> ignore (run_par_traced ~workers:2 prog))

let test_par_exception () =
  Alcotest.check_raises "exception from worker" (Failure "par-boom") (fun () ->
      ignore
        (run_par_traced ~workers:2 (fun () ->
             Program.spawn (fun () -> failwith "par-boom");
             Program.sync ())))

(* An exception thrown deep inside nested spawns must reach the caller
   rather than deadlock the join: workers parked on the failure must be
   released and the pending continuations discarded. Every worker count
   exercises a different parking pattern. *)
let test_par_nested_exception_no_deadlock () =
  List.iter
    (fun workers ->
      Alcotest.check_raises
        (Printf.sprintf "deep exception with %d workers" workers)
        (Failure "deep-boom")
        (fun () ->
          ignore
            (run_par_traced ~workers (fun () ->
                 Program.spawn (fun () ->
                     Program.spawn (fun () ->
                         Program.spawn (fun () ->
                             Program.work 2;
                             failwith "deep-boom");
                         Program.sync ());
                     Program.sync ());
                 (* sibling work keeps other workers busy at failure time *)
                 Program.spawn (fun () -> Program.work 50);
                 Program.sync ()))))
    [ 1; 2; 4 ]

(* exception raised inside a future body, with the get still pending *)
let test_par_future_exception_no_deadlock () =
  Alcotest.check_raises "future body exception" (Failure "future-boom")
    (fun () ->
      ignore
        (run_par_traced ~workers:4 (fun () ->
             let h = Program.create (fun () -> failwith "future-boom") in
             Program.work 10;
             ignore (Program.get h))))

(* Nested 64-way fan-outs: 64 futures each join a 64-way spawn before
   returning, and 64 spawned siblings each get one of them, usually
   fulfilled on another worker. Eight siblings also write one shared
   cell, so the racy set is that cell. On 4 workers the result and the
   racy set (relative to the program's first allocation) must equal the
   serial executor's, run after run. *)
let wide_fan_program base () =
  let width = 64 in
  let data = Program.alloc (width * width) 0 in
  let out = Program.alloc width 0 in
  let shared = Program.alloc 1 0 in
  base := Program.base data;
  let fill i =
    for j = 0 to width - 1 do
      Program.spawn (fun () -> Program.wr data ((i * width) + j) ((i * j) mod 7))
    done;
    Program.sync ();
    let s = ref 0 in
    for j = 0 to width - 1 do
      s := !s + Program.rd data ((i * width) + j)
    done;
    !s
  in
  let futures = Array.init width (fun i -> Program.create (fun () -> fill i)) in
  for i = 0 to width - 1 do
    Program.spawn (fun () ->
        Program.wr out i (Program.get futures.(i));
        if i mod 8 = 0 then Program.wr shared 0 i)
  done;
  Program.sync ();
  let s = ref 0 in
  for i = 0 to width - 1 do
    s := !s + Program.rd out i
  done;
  !s

let test_par_wide_fan_matches_serial () =
  let module Detector = Sfr_detect.Detector in
  let run exec =
    let det = Sfr_detect.Sf_order.make () in
    let base = ref 0 in
    let r = exec det (wide_fan_program base) in
    (r, List.map (fun l -> l - !base) (Detector.racy_locations det))
  in
  let serial_r, serial_racy =
    run (fun det prog -> fst (Serial_exec.run det.Detector.callbacks ~root:det.Detector.root prog))
  in
  check int "one racy cell" 1 (List.length serial_racy);
  for _ = 1 to 5 do
    let r, racy =
      run (fun det prog ->
          fst (Par_exec.run ~workers:4 det.Detector.callbacks ~root:det.Detector.root prog))
    in
    check int "result" serial_r r;
    check (Alcotest.list int) "racy set" serial_racy racy
  done

(* Two concurrently running siblings get one handle: exactly one get
   claims it, and the other raises. *)
let test_par_concurrent_double_get () =
  Alcotest.check_raises "double get on 4 workers"
    (Program.Unstructured_use "get invoked twice on the same future handle")
    (fun () ->
      ignore
        (run_par_traced ~workers:4 (fun () ->
             let h = Program.create (fun () -> fib 6) in
             for _ = 1 to 2 do
               Program.spawn (fun () ->
                   Program.work 20;
                   ignore (Program.get h))
             done;
             Program.sync ())))

(* One child of a 64-way fan-out waits on a handle nothing will fulfil:
   the parked sync can never run, and the run must raise at quiescence
   instead of hanging. *)
let test_par_deadlock_raises () =
  let never = Program.Handle.make () in
  match
    run_par_traced ~workers:4 (fun () ->
        for i = 0 to 63 do
          Program.spawn (fun () -> if i = 17 then Program.get never else Program.work 5)
        done;
        Program.sync ())
  with
  | _ -> Alcotest.fail "a deadlocked run returned"
  | exception Program.Unstructured_use _ -> ()

(* ------------------------------------------------------------------ *)
(* Deque model check                                                    *)
(* ------------------------------------------------------------------ *)

(* Randomized differential test of the worker deque against a list
   model: push_bottom/pop_bottom at one end, steal_top at the other.
   Tasks are identified by a mutable cell each sets; thousands of ops
   cross the ring buffer's grow and wraparound paths. *)
let test_deque_vs_model () =
  let module Deque = Par_exec.Deque in
  let rng = Sfr_support.Prng.create 0xDEC0DE in
  let d = Deque.create () in
  let model = ref [] in (* bottom of deque = head of list *)
  let last = ref (-1) in
  let mk i = (i, fun () -> last := i) in
  let run_thunk t = t (); !last in
  let next = ref 0 in
  for _ = 1 to 5_000 do
    match Sfr_support.Prng.int rng 5 with
    | 0 | 1 | 2 ->
        let i, t = mk !next in
        incr next;
        Deque.push_bottom d t;
        model := (i, t) :: !model
    | 3 -> (
        match (Deque.pop_bottom d, !model) with
        | None, [] -> ()
        | Some t, (i, _) :: rest ->
            model := rest;
            Alcotest.(check int) "pop_bottom matches model" i (run_thunk t)
        | Some _, [] -> Alcotest.fail "deque has task, model empty"
        | None, _ :: _ -> Alcotest.fail "deque empty, model has task")
    | _ -> (
        match (Deque.steal_top d, List.rev !model) with
        | None, [] -> ()
        | Some t, (i, _) :: rest ->
            model := List.rev rest;
            Alcotest.(check int) "steal_top matches model" i (run_thunk t)
        | Some _, [] -> Alcotest.fail "deque has task, model empty"
        | None, _ :: _ -> Alcotest.fail "deque empty, model has task")
  done;
  (* drain and compare the final contents *)
  let rec drain acc =
    match Deque.pop_bottom d with
    | Some t -> drain (run_thunk t :: acc)
    | None -> List.rev acc
  in
  let deque_rest = drain [] in
  let model_rest = List.map fst !model in
  Alcotest.(check (list int)) "residual contents match" model_rest deque_rest

(* ------------------------------------------------------------------ *)
(* Synthetic cross-executor properties                                  *)
(* ------------------------------------------------------------------ *)

let dag_signature dag =
  let c = Dag_algo.counts dag in
  ( c.Dag_algo.nodes,
    c.Dag_algo.futures,
    c.Dag_algo.sp_edges,
    c.Dag_algo.create_edges,
    c.Dag_algo.get_edges )

let prop_serial_valid_and_deterministic =
  QCheck2.Test.make ~name:"synthetic: serial runs are valid and deterministic"
    ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let t = Synthetic.generate ~seed ~ops:120 ~depth:5 ~locs:12 () in
      let i1 = Synthetic.instantiate t in
      let i2 = Synthetic.instantiate t in
      let (), trace1 = run_serial_traced i1.Synthetic.program in
      let (), trace2 = run_serial_traced i2.Synthetic.program in
      Dag_check.validate_sf (Trace.dag trace1) = []
      && i1.Synthetic.checksum () = i2.Synthetic.checksum ()
      && dag_signature (Trace.dag trace1) = dag_signature (Trace.dag trace2))

let prop_parallel_matches_serial =
  QCheck2.Test.make ~name:"synthetic: parallel = serial (checksum, dag shape)"
    ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, workers) ->
      let t = Synthetic.generate ~seed ~ops:100 ~depth:5 ~locs:12 () in
      let is_ = Synthetic.instantiate t in
      let ip = Synthetic.instantiate t in
      let (), trace_s = run_serial_traced is_.Synthetic.program in
      let (), trace_p = run_par_traced ~workers ip.Synthetic.program in
      is_.Synthetic.checksum () = ip.Synthetic.checksum ()
      && Dag_check.validate_sf (Trace.dag trace_p) = []
      && dag_signature (Trace.dag trace_s) = dag_signature (Trace.dag trace_p))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_serial_valid_and_deterministic; prop_parallel_matches_serial ]

let () =
  Alcotest.run "runtime"
    [
      ( "serial",
        [
          Alcotest.test_case "plain" `Quick test_serial_plain;
          Alcotest.test_case "fib" `Quick test_serial_fib;
          Alcotest.test_case "futures pipeline" `Quick test_serial_futures_pipeline;
          Alcotest.test_case "memory counts" `Quick test_serial_memory_counts;
          Alcotest.test_case "access log" `Quick test_serial_access_log;
          Alcotest.test_case "single touch" `Quick test_serial_unstructured_get_blocks;
          Alcotest.test_case "exception" `Quick test_serial_exception_propagates;
          Alcotest.test_case "implicit sync" `Quick test_serial_implicit_sync;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "fib" `Quick test_par_fib;
          Alcotest.test_case "future suspension" `Quick test_par_future_suspension;
          Alcotest.test_case "sync suspension" `Quick test_par_sync_suspension;
          Alcotest.test_case "escaping future" `Quick test_par_escaping_future;
          Alcotest.test_case "single touch" `Quick test_par_single_touch;
          Alcotest.test_case "exception" `Quick test_par_exception;
          Alcotest.test_case "nested exception no deadlock" `Quick
            test_par_nested_exception_no_deadlock;
          Alcotest.test_case "future exception no deadlock" `Quick
            test_par_future_exception_no_deadlock;
          Alcotest.test_case "wide fan matches serial" `Quick test_par_wide_fan_matches_serial;
          Alcotest.test_case "concurrent double get" `Quick test_par_concurrent_double_get;
          Alcotest.test_case "deadlock raises" `Quick test_par_deadlock_raises;
        ] );
      ("deque", [ Alcotest.test_case "vs list model" `Quick test_deque_vs_model ]);
      ("properties", qtests);
    ]
