(* Robustness and concurrency stress: the multicore executor under deep
   nesting, wide fan-out and worker churn; the order-maintenance lists and
   the lock-free access history hammered from multiple domains; and the
   small support modules not covered elsewhere. *)

module Om = Sfr_om.Om
module Vec = Sfr_support.Vec
module Mem_meter = Sfr_support.Mem_meter
module Program = Sfr_runtime.Program
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Events = Sfr_runtime.Events
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Access_history = Sfr_detect.Access_history

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Par_exec robustness                                                  *)
(* ------------------------------------------------------------------ *)

(* deep create nesting exercises frame bookkeeping and handle chains *)
let test_par_deep_nest () =
  let rec nest k () = if k = 0 then 0 else 1 + Program.get (Program.create (nest (k - 1))) in
  List.iter
    (fun workers ->
      let r, _ =
        Par_exec.run ~workers Events.null ~root:Events.Unit_state (fun () -> nest 300 ())
      in
      check int (Printf.sprintf "depth 300 (P=%d)" workers) 300 r)
    [ 1; 2; 4 ]

(* wide fan-out: many spawned tasks racing to a single sync *)
let test_par_wide_fan () =
  let prog () =
    let acc = Atomic.make 0 in
    for _ = 1 to 500 do
      Program.spawn (fun () -> Atomic.incr acc)
    done;
    Program.sync ();
    Atomic.get acc
  in
  List.iter
    (fun workers ->
      let r, _ = Par_exec.run ~workers Events.null ~root:Events.Unit_state prog in
      check int (Printf.sprintf "fan 500 (P=%d)" workers) 500 r)
    [ 1; 2; 8 ]

(* many escaped futures must all complete before run returns *)
let test_par_escaped_flood () =
  let acc = Atomic.make 0 in
  let prog () =
    for _ = 1 to 200 do
      ignore (Program.create (fun () -> Atomic.incr acc))
    done
  in
  let (), _ = Par_exec.run ~workers:4 Events.null ~root:Events.Unit_state prog in
  check int "all escaped futures ran" 200 (Atomic.get acc)

(* exceptions thrown inside a future body surface from run *)
let test_par_future_exception () =
  Alcotest.check_raises "future exception" (Failure "future-boom") (fun () ->
      ignore
        (Par_exec.run ~workers:2 Events.null ~root:Events.Unit_state (fun () ->
             let h = Program.create (fun () -> failwith "future-boom") in
             ignore (Program.get h))))

(* back-to-back runs reuse domain-local state safely *)
let test_par_sequential_runs () =
  for i = 1 to 5 do
    let r, _ =
      Par_exec.run ~workers:2 Events.null ~root:Events.Unit_state (fun () ->
          let h = Program.create (fun () -> i * 10) in
          Program.get h)
    in
    check int "run result" (i * 10) r
  done

(* a bigger synthetic program under parallel detection, several times:
   verdicts must be schedule-independent *)
let test_par_detection_stable () =
  let t = Synthetic.generate ~seed:99 ~ops:300 ~depth:6 ~locs:16 () in
  let verdict workers =
    let det = Sf_order.make () in
    let inst = Synthetic.instantiate t in
    let (), _ =
      Par_exec.run ~workers det.Detector.callbacks ~root:det.Detector.root
        inst.Synthetic.program
    in
    List.map (fun l -> l - inst.Synthetic.mem_base) (Detector.racy_locations det)
  in
  let reference = verdict 1 in
  for _ = 1 to 3 do
    check (Alcotest.list int) "stable verdict (P=3)" reference (verdict 3)
  done

(* ------------------------------------------------------------------ *)
(* OM under multi-domain mutation                                       *)
(* ------------------------------------------------------------------ *)

let test_om_concurrent_inserts () =
  let t, base = Om.create () in
  (* each domain owns a private anchor and hammers inserts after it *)
  let anchors = List.init 4 (fun _ -> Om.insert_after t base) in
  let domains =
    List.map
      (fun anchor ->
        Domain.spawn (fun () ->
            let cur = ref anchor in
            for i = 1 to 3_000 do
              if i mod 3 = 0 then cur := Om.insert_after t !cur
              else ignore (Om.insert_after t !cur)
            done))
      anchors
  in
  List.iter Domain.join domains;
  Om.check_invariants t;
  check int "all inserted" (1 + 4 + (4 * 3_000)) (Om.size t);
  (* anchor order is preserved: anchors were inserted right after base in
     reverse order *)
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        check bool "later anchors precede earlier" true (Om.precedes t b a);
        pairwise rest
    | _ -> ()
  in
  pairwise anchors

(* ------------------------------------------------------------------ *)
(* Lock-free access history under concurrency                           *)
(* ------------------------------------------------------------------ *)

let test_lockfree_history_stress () =
  let h = Access_history.create Access_history.Keep_all in
  let checks = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 4_999 do
              let loc = i mod 32 in
              if (i + d) mod 4 = 0 then
                Access_history.on_write h ~loc ~accessor:(d * 100_000 + i)
                  ~check:(fun ~prev:_ ~prev_is_writer:_ -> Atomic.incr checks)
              else
                Access_history.on_read h ~loc ~accessor:(d * 100_000 + i)
                  ~check_writer:(fun _ -> Atomic.incr checks)
            done))
  in
  List.iter Domain.join domains;
  check bool "many checks fired" true (Atomic.get checks > 1_000);
  check int "locations tracked" 32 (Access_history.locations_tracked h);
  (* the completeness skeleton: after a quiescent write, a later read must
     be checked against it *)
  Access_history.on_write h ~loc:999 ~accessor:1 ~check:(fun ~prev:_ ~prev_is_writer:_ -> ());
  let seen = ref [] in
  Access_history.on_read h ~loc:999 ~accessor:2 ~check_writer:(fun w -> seen := w :: !seen);
  check (Alcotest.list int) "writer visible to later reader" [ 1 ] !seen

let test_lockfree_sparse_locations () =
  (* pages and spine growth across far-apart locations *)
  let h = Access_history.create Access_history.Keep_all in
  List.iter
    (fun loc ->
      Access_history.on_write h ~loc ~accessor:loc
        ~check:(fun ~prev:_ ~prev_is_writer:_ -> ()))
    [ 0; 1_000; 50_000; 200_000 ];
  check int "four cells" 4 (Access_history.locations_tracked h);
  let seen = ref [] in
  Access_history.on_read h ~loc:200_000 ~accessor:7
    ~check_writer:(fun w -> seen := w :: !seen);
  check (Alcotest.list int) "far cell intact" [ 200_000 ] !seen

(* Locations far apart cost a page each, not the span between them:
   0, 2^50, max_int and a negative location hold four pages. A later
   dense fill reaching one of them adopts its page into the spine, and
   the record written there survives the move. *)
let test_history_far_apart () =
  let page_words = 1 + (3 * 512) in
  List.iter
    (fun sync ->
      let h = Access_history.create ~sync Access_history.Keep_all in
      let write loc =
        Access_history.on_write h ~loc ~accessor:loc ~check:(fun ~prev:_ ~prev_is_writer:_ -> ())
      in
      let writer_at loc =
        let seen = ref [] in
        Access_history.on_read h ~loc ~accessor:(-1) ~check_writer:(fun w -> seen := w :: !seen);
        !seen
      in
      let far = [ 0; 1 lsl 50; max_int; -(1 lsl 40) ] in
      List.iter write far;
      List.iter (fun loc -> check (Alcotest.list int) "far writer" [ loc ] (writer_at loc)) far;
      let w = Access_history.words h in
      if w > (4 * page_words) + 4096 then Alcotest.failf "four far locations hold %d words" w;
      (* page 1000 starts sparse; filling pages 1..999 grows the spine over it *)
      let lone = 1000 * 512 in
      write lone;
      for p = 1 to 999 do
        write (p * 512)
      done;
      check (Alcotest.list int) "adopted page keeps its record" [ lone ] (writer_at lone);
      check int "locations tracked" (4 + 1000) (Access_history.locations_tracked h);
      let w = Access_history.words h in
      if w > (1004 * page_words * 9 / 8) + 4096 then Alcotest.failf "1004 pages hold %d words" w)
    [ `Cas; `Unsynchronized ]

(* Four domains install far-apart and nearby pages at once; every write
   lands in the one cell later reads find. *)
let test_history_far_apart_parallel () =
  let h = Access_history.create Access_history.Keep_all in
  let loc d i = if i mod 2 = 0 then (d lsl 44) + (i lsl 20) else (d * 4096) + i in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 199 do
              Access_history.on_write h ~loc:(loc d i) ~accessor:(loc d i)
                ~check:(fun ~prev:_ ~prev_is_writer:_ -> ())
            done))
  in
  List.iter Domain.join domains;
  check int "locations tracked" 800 (Access_history.locations_tracked h);
  for d = 0 to 3 do
    for i = 0 to 199 do
      let seen = ref [] in
      Access_history.on_read h ~loc:(loc d i) ~accessor:(-1)
        ~check_writer:(fun w -> seen := w :: !seen);
      check (Alcotest.list int) "writer visible" [ loc d i ] !seen
    done
  done

(* Memory follows the locations touched, whatever order they arrive in.
   A sweep from high to low addresses once grew a directory that doubled
   on every downward step; checking every 1024 locations catches such
   growth long before it exhausts memory. *)
let test_history_growth_follows_touched () =
  let n = 200_000 and top = 5_000_000 in
  let h = Access_history.create Access_history.Keep_all in
  for i = 0 to n - 1 do
    let loc = top - i in
    Access_history.on_write h ~loc ~accessor:loc
      ~check:(fun ~prev:_ ~prev_is_writer:_ -> ());
    let touched = i + 1 in
    if touched mod 1024 = 0 || touched = n then begin
      let w = Access_history.words h in
      if w > (16 * touched) + 8192 then
        Alcotest.failf "history holds %d words after %d locations" w touched
    end
  done;
  check int "every location tracked" n (Access_history.locations_tracked h)

(* The default detector's history on serial sort at default scale stays
   within the footprint of the striped-mutex history it replaced
   (682,560 words). *)
let test_history_words_sort_default () =
  let module Workload = Sfr_workloads.Workload in
  let w = Option.get (Sfr_workloads.Registry.find "sort") in
  let inst = w.Workload.instantiate Workload.Default in
  let det = (Option.get (Sfr_detect.Registry.find "sf-order")).Sfr_detect.Registry.make () in
  Serial_exec.run det.Detector.callbacks ~root:det.Detector.root inst.Workload.program |> fst;
  let words = det.Detector.history_words () in
  if words > 682_560 then Alcotest.failf "sort/default history holds %d words" words

(* ------------------------------------------------------------------ *)
(* Support modules: Vec, Mem_meter                                      *)
(* ------------------------------------------------------------------ *)

let test_vec () =
  let v = Vec.create ~dummy:(-1) () in
  check int "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    check int "push index" i (Vec.push v (i * 2))
  done;
  check int "length" 100 (Vec.length v);
  check int "get" 84 (Vec.get v 42);
  Vec.set v 42 (-5);
  check int "set" (-5) (Vec.get v 42);
  check int "fold" (List.fold_left ( + ) 0 (Vec.to_list v)) (Vec.fold ( + ) 0 v);
  let seen = ref 0 in
  Vec.iteri (fun i x -> if i = 7 then seen := x) v;
  check int "iteri" 14 !seen;
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 100));
  check bool "words >= length" true (Vec.words v >= Vec.length v)

let test_mem_meter () =
  check int "bytes per word" (Sys.word_size / 8) (Mem_meter.bytes_of_words 1);
  check bool "mib" true (abs_float (Mem_meter.mib_of_words (1024 * 1024 / 8) -. 1.0) < 0.01);
  let fmt w = Format.asprintf "%a" Mem_meter.pp_bytes w in
  check bool "B" true (String.length (fmt 1) > 0);
  check bool "KiB rendered" true
    (let s = fmt 1024 in
     String.length s >= 3 && String.sub s (String.length s - 3) 3 = "KiB");
  check bool "heap probe positive" true (Mem_meter.heap_live_words () > 0)

let () =
  Alcotest.run "stress"
    [
      ( "par_exec",
        [
          Alcotest.test_case "deep nest" `Quick test_par_deep_nest;
          Alcotest.test_case "wide fan" `Quick test_par_wide_fan;
          Alcotest.test_case "escaped flood" `Quick test_par_escaped_flood;
          Alcotest.test_case "future exception" `Quick test_par_future_exception;
          Alcotest.test_case "sequential runs" `Quick test_par_sequential_runs;
          Alcotest.test_case "stable detection" `Quick test_par_detection_stable;
        ] );
      ("om", [ Alcotest.test_case "concurrent inserts" `Quick test_om_concurrent_inserts ]);
      ( "lockfree_history",
        [
          Alcotest.test_case "stress" `Quick test_lockfree_history_stress;
          Alcotest.test_case "sparse locations" `Quick test_lockfree_sparse_locations;
          Alcotest.test_case "far-apart locations" `Quick test_history_far_apart;
          Alcotest.test_case "far-apart parallel" `Quick test_history_far_apart_parallel;
          Alcotest.test_case "growth follows touched" `Quick test_history_growth_follows_touched;
          Alcotest.test_case "sort/default words" `Quick test_history_words_sort_default;
        ] );
      ( "support",
        [
          Alcotest.test_case "vec" `Quick test_vec;
          Alcotest.test_case "mem_meter" `Quick test_mem_meter;
        ] );
    ]
