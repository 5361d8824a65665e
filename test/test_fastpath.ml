(* Differential tests for the access history's swap-free paths and the
   future-tree cp spans, against the independent oracles.

   The contract: under a serial execution SF-Order's outcome — race
   reports (location, kind, attributed futures, witness count),
   reachability-query total and reader high-water mark — is
   byte-identical to vc-order's, which shares no reachability code with
   it, and its racy-location set equals the naive all-pairs oracle's. On
   parallel and chaos-perturbed schedules the racy-location set must not
   change, for the keep-all and the 2-per-future reader policies alike. *)

module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Race = Sfr_detect.Race
module Sf_order = Sfr_detect.Sf_order
module Vc_order = Sfr_detect.Vc_order
module Naive_detector = Sfr_detect.Naive_detector
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
module Trace = Sfr_runtime.Trace
module Dag = Sfr_dag.Dag
module Chaos = Sfr_chaos.Chaos

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type outcome = {
  o_reports : (int * Race.kind * int * int * int) list;
  o_queries : int;
  o_max_readers : int;
}

let outcome_pp ppf o =
  Format.fprintf ppf "{queries=%d; max_readers=%d; reports=[%a]}" o.o_queries
    o.o_max_readers
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (l, k, p, c, n) ->
         Format.fprintf ppf "%d:%a:%d->%d x%d" l Race.pp_kind k p c n))
    o.o_reports

let outcome = Alcotest.testable outcome_pp ( = )

(* [base] rebases locations: each instantiation allocates fresh global
   location IDs, so reports are only comparable relative to the
   instance's own memory base *)
let run_full ?workers ?(base = 0) det prog =
  (match workers with
  | None ->
      Serial_exec.run det.Detector.callbacks ~root:det.Detector.root prog |> fst
  | Some w ->
      Par_exec.run ~workers:w det.Detector.callbacks ~root:det.Detector.root
        prog
      |> fst);
  {
    o_reports =
      List.map
        (fun (r : Race.report) ->
          (r.Race.loc - base, r.Race.kind, r.Race.prev_future,
           r.Race.cur_future, r.Race.count))
        (Race.reports det.Detector.races);
    o_queries = det.Detector.queries ();
    o_max_readers = det.Detector.max_readers ();
  }

let racy_set o = List.map (fun (l, _, _, _, _) -> l) o.o_reports

(* The naive oracle's racy set, plus the most futures reading any one
   location — the k in the 2-per-future bound (Lemmas 3.10/3.11). *)
let naive_and_readers ~base prog =
  let trace, cb, root = Trace.make ~log_accesses:true () in
  let (), _ = Serial_exec.run cb ~root prog in
  let dag = Trace.dag trace in
  let v = Naive_detector.analyze dag (Trace.accesses trace) in
  let futures = Hashtbl.create 64 in
  List.iter
    (fun (a : Trace.access) ->
      if not a.Trace.is_write then
        Hashtbl.replace futures (a.Trace.loc, Dag.future_of dag a.Trace.node) ())
    (Trace.accesses trace);
  let per_loc = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (loc, _) () ->
      Hashtbl.replace per_loc loc (1 + Option.value (Hashtbl.find_opt per_loc loc) ~default:0))
    futures;
  ( List.sort compare (List.map (fun l -> l - base) v.Naive_detector.racy_locations),
    Hashtbl.fold (fun _ n m -> max n m) per_loc 0 )

(* The programs the differentials cover, each a fresh-instance thunk
   returning (program, memory base): the five workloads at tiny scale
   with and without an injected race, and 24 synthetic dags, racy and
   race-free. *)
let workload_programs =
  List.concat_map
    (fun (w : Workload.t) ->
      List.map
        (fun inject_race ->
          ( Printf.sprintf "%s inject=%b" w.Workload.name inject_race,
            fun () ->
              let inst = w.Workload.instantiate ~inject_race Workload.Tiny in
              (inst.Workload.program, inst.Workload.mem_base) ))
        [ false; true ])
    Registry.all

let synthetic_programs =
  List.concat_map
    (fun race_free ->
      List.init 12 (fun i ->
          let seed = i + 1 in
          let t = Synthetic.generate ~race_free ~seed ~ops:150 ~depth:5 ~locs:8 () in
          ( Printf.sprintf "synthetic seed %d race_free=%b" seed race_free,
            fun () ->
              let inst = Synthetic.instantiate t in
              (inst.Synthetic.program, inst.Synthetic.mem_base) )))
    [ false; true ]

let programs = workload_programs @ synthetic_programs

let run ?workers make fresh =
  let prog, base = fresh () in
  run_full ?workers ~base (make ()) prog

(* serial: byte-identical to vc-order, race set equal to naive *)
let test_serial_oracles programs () =
  List.iter
    (fun (name, fresh) ->
      let sf = run Sf_order.make fresh in
      check outcome (name ^ ": sf-order = vc-order") (run Vc_order.make fresh) sf;
      let prog, base = fresh () in
      let naive, _ = naive_and_readers ~base prog in
      check (Alcotest.list int) (name ^ ": sf-order = naive") naive (racy_set sf))
    programs

(* under a parallel schedule the witnessed interleaving (hence counts and
   query totals) may differ run to run, but the racy-location set is
   schedule-independent *)
let test_parallel_differential () =
  for seed = 1 to 6 do
    let t = Synthetic.generate ~seed ~ops:200 ~depth:5 ~locs:8 () in
    let fresh () =
      let inst = Synthetic.instantiate t in
      (inst.Synthetic.program, inst.Synthetic.mem_base)
    in
    check (Alcotest.list int)
      (Printf.sprintf "seed %d: 4-domain race set = serial" seed)
      (racy_set (run Sf_order.make fresh))
      (racy_set (run ~workers:4 Sf_order.make fresh))
  done

(* chaos-perturbed schedules stress the publication paths (chunk installs,
   page installs, lost compare-and-sets) without injecting faults: the
   race set must still match the serial run's *)
let test_chaos_parallel () =
  for seed = 1 to 4 do
    let t = Synthetic.generate ~seed:(100 + seed) ~ops:200 ~depth:5 ~locs:8 () in
    let fresh () =
      let inst = Synthetic.instantiate t in
      (inst.Synthetic.program, inst.Synthetic.mem_base)
    in
    let serial = run Sf_order.make fresh in
    let perturbed =
      Chaos.arm ~seed ();
      Fun.protect ~finally:Chaos.disarm (fun () -> run ~workers:4 Sf_order.make fresh)
    in
    check (Alcotest.list int)
      (Printf.sprintf "seed %d: chaos 4-domain race set = serial" seed)
      (racy_set serial) (racy_set perturbed)
  done

(* The 2-per-future policy on 2 domains, plain and chaos-perturbed: the
   racy set equals vc-order's serial one on every program, and no
   location ever stores more than 2 readers per future reading it. *)
let two_pf () = Sf_order.make ~readers:`Two_per_future ()

let test_2pf_parallel ~chaos () =
  List.iteri
    (fun i (name, fresh) ->
      let expected = racy_set (run Vc_order.make fresh) in
      let par =
        if chaos then begin
          Chaos.arm ~seed:(300 + i) ();
          Fun.protect ~finally:Chaos.disarm (fun () -> run ~workers:2 two_pf fresh)
        end
        else run ~workers:2 two_pf fresh
      in
      check (Alcotest.list int) (name ^ ": 2pf 2-domain = vc-order") expected (racy_set par);
      let prog, base = fresh () in
      let _, k = naive_and_readers ~base prog in
      if par.o_max_readers > 2 * k then
        Alcotest.failf "%s: %d readers stored, %d futures read one location" name
          par.o_max_readers k)
    programs

(* cp costs O(1) words per future: a create inserts a two-item span into
   the future tree and copies no set. On a depth-k create chain the
   tree's list stays within c·k words, SF-Order charges nothing to
   reach.table.alloc_words beyond its gp tables, and so allocates
   strictly fewer table words than MultiBags, which keeps the paper's
   cp bitmap per future on the same program. *)
let test_cp_words_per_future () =
  let module P = Sfr_runtime.Program in
  let module Future_tree = Sfr_reach.Future_tree in
  let rec create_nest k () =
    if k = 0 then 0
    else begin
      let h = P.create (create_nest (k - 1)) in
      P.work 1;
      P.get h
    end
  in
  let k = 1500 in
  let run make =
    let det = make () in
    Serial_exec.run det.Detector.callbacks ~root:det.Detector.root (fun () ->
        ignore (create_nest k ()))
    |> fst;
    det
  in
  let sf = run (fun () -> Sf_order.make ()) in
  (* metrics are process-wide: read sf-order's before multibags runs *)
  let alloc =
    match List.assoc_opt "reach.table.alloc_words" (sf.Detector.metrics ()) with
    | Some w -> w
    | None -> Alcotest.fail "reach.table.alloc_words not in metrics"
  in
  let mb = run Sfr_detect.Multibags.make in
  if alloc > sf.Detector.reach_table_words () then
    Alcotest.failf "sf-order charged %d table words beyond its %d gp words" alloc
      (sf.Detector.reach_table_words ());
  let sf_t = sf.Detector.reach_table_words () and mb_t = mb.Detector.reach_table_words () in
  if sf_t >= mb_t then
    Alcotest.failf "sf-order table words %d not below multibags' %d" sf_t mb_t;
  let tree, root = Future_tree.create () in
  let rec chain p n = if n > 0 then chain (Future_tree.create_child tree p) (n - 1) in
  chain root k;
  let words = Future_tree.words tree in
  if words > 16 * k then
    Alcotest.failf "future tree words %d for k=%d above 16k" words k

(* the write filter must actually absorb consecutive same-strand writes
   (the counter moving is what the scaling bench reports), while every
   write after a location's first still runs its writer check *)
let test_write_fastpath_counter () =
  let module P = Sfr_runtime.Program in
  let metric det name =
    match List.assoc_opt name (det.Detector.metrics ()) with
    | Some v -> v
    | None -> 0
  in
  let run make =
    let a = P.alloc 4 0 in
    let det = make () in
    Serial_exec.run det.Detector.callbacks ~root:det.Detector.root (fun () ->
        for _ = 1 to 100 do
          P.wr a 0 1;
          P.wr a 1 1
        done)
    |> fst;
    det
  in
  let sf = run Sf_order.make in
  check bool "fast path taken" true (metric sf "history.write.fastpath" >= 190);
  check int "one writer check per repeat write" 198 (sf.Detector.queries ());
  check int "vc-order agrees" 198 ((run Vc_order.make).Detector.queries ())

let () =
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads = vc-order, naive" `Quick
            (test_serial_oracles workload_programs);
          Alcotest.test_case "synthetic = vc-order, naive" `Quick
            (test_serial_oracles synthetic_programs);
          Alcotest.test_case "4-domain race sets" `Quick
            test_parallel_differential;
          Alcotest.test_case "chaos 4-domain race sets" `Quick
            test_chaos_parallel;
          Alcotest.test_case "2pf 2-domain race sets" `Quick
            (test_2pf_parallel ~chaos:false);
          Alcotest.test_case "2pf chaos race sets" `Quick
            (test_2pf_parallel ~chaos:true);
        ] );
      ( "ablation",
        [
          Alcotest.test_case "cp words per future" `Quick
            test_cp_words_per_future;
          Alcotest.test_case "write fastpath counter" `Quick
            test_write_fastpath_counter;
        ] );
    ]
