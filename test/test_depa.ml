(* Differential tests for the DePa order-maintenance backend.

   The backend contract: [Sf_order.make ~om:`List] is the reference and
   [~om:`Depa] must be observationally identical — byte-identical race
   reports (location, kind, attributed futures, witness count),
   identical reachability-query totals, and the identical reader
   high-water mark — on every workload, every synthetic program, serial
   and 4-domain, with and without chaos perturbation. The OM-internal
   counters are the only thing allowed to differ, and they must differ
   in the advertised direction: depa runs perform zero relabels. *)

module Workload = Sfr_workloads.Workload
module Registry = Sfr_workloads.Registry
module Synthetic = Sfr_workloads.Synthetic
module Detector = Sfr_detect.Detector
module Race = Sfr_detect.Race
module Sf_order = Sfr_detect.Sf_order
module F_order = Sfr_detect.F_order
module Serial_exec = Sfr_runtime.Serial_exec
module Par_exec = Sfr_runtime.Par_exec
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

let metric det name =
  match List.assoc_opt name (det.Detector.metrics ()) with
  | Some v -> v
  | None -> 0

let histories = [ (`Cas, "cas"); (`Unsynchronized, "unsync") ]

(* depa and list must agree on every real workload, both history
   synchronization modes, serial execution (deterministic schedule, so
   the outcomes must be exactly equal, not just race-equivalent) — and a
   depa run must never open a relabel window *)
let test_workloads_differential () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (history, hname) ->
          let run om =
            let inst = w.Workload.instantiate Workload.Tiny in
            let det = Sf_order.make ~history ~om () in
            let o = run_full det inst.Workload.program in
            (o, det)
          in
          (* list first: Detector.metrics diffs against a creation-time
             snapshot of the process-global counters, so the reference
             run's relabels must land before the depa detector exists *)
          let ref_, _ = run `List in
          let depa, ddet = run `Depa in
          check outcome
            (Printf.sprintf "%s/%s depa = list" w.Workload.name hname)
            ref_ depa;
          check bool
            (Printf.sprintf "%s/%s nonzero queries" w.Workload.name hname)
            true (depa.o_queries > 0);
          check int
            (Printf.sprintf "%s/%s depa run has no relabels" w.Workload.name
               hname)
            0 (metric ddet "om.relabels"))
        histories)
    Registry.all

(* ... and on random synthetic dags, racy and race-free *)
let test_synthetic_differential () =
  List.iter
    (fun race_free ->
      for seed = 1 to 12 do
        let t = Synthetic.generate ~race_free ~seed ~ops:150 ~depth:5 ~locs:8 () in
        List.iter
          (fun (history, hname) ->
            let run om =
              let inst = Synthetic.instantiate t in
              run_full ~base:inst.Synthetic.mem_base
                (Sf_order.make ~history ~om ())
                inst.Synthetic.program
            in
            check outcome
              (Printf.sprintf "seed %d race_free=%b %s" seed race_free hname)
              (run `List) (run `Depa))
          histories
      done)
    [ false; true ]

(* the F-Order detector shares Sp_order, so the backend seam must hold
   there too *)
let test_forder_differential () =
  for seed = 1 to 6 do
    let t = Synthetic.generate ~seed ~ops:150 ~depth:5 ~locs:8 () in
    let run om =
      let inst = Synthetic.instantiate t in
      run_full ~base:inst.Synthetic.mem_base
        (F_order.make ~om ())
        inst.Synthetic.program
    in
    check outcome
      (Printf.sprintf "f-order seed %d depa = list" seed)
      (run `List) (run `Depa)
  done

(* under a parallel schedule the witnessed interleaving (hence counts and
   query totals) may differ run to run, but the racy-location set is
   schedule-independent — both backends must find the serial one *)
let racy_set o = List.map (fun (l, _, _, _, _) -> l) o.o_reports

let test_parallel_differential () =
  for seed = 1 to 6 do
    let t = Synthetic.generate ~seed ~ops:200 ~depth:5 ~locs:8 () in
    let run om workers =
      let inst = Synthetic.instantiate t in
      run_full ?workers ~base:inst.Synthetic.mem_base (Sf_order.make ~om ())
        inst.Synthetic.program
    in
    let serial = run `List None in
    let par_depa = run `Depa (Some 4) in
    let par_list = run `List (Some 4) in
    check (Alcotest.list int)
      (Printf.sprintf "seed %d: 4-domain depa = serial race set" seed)
      (racy_set serial) (racy_set par_depa);
    check (Alcotest.list int)
      (Printf.sprintf "seed %d: 4-domain list = serial race set" seed)
      (racy_set serial) (racy_set par_list)
  done

(* chaos-perturbed schedules stress label publication (including the
   Label_extend window on heap spills) without injecting faults: the
   race set must still match the serial run's *)
let test_chaos_parallel () =
  for seed = 1 to 4 do
    let t = Synthetic.generate ~seed:(100 + seed) ~ops:200 ~depth:5 ~locs:8 () in
    let serial =
      let inst = Synthetic.instantiate t in
      run_full ~base:inst.Synthetic.mem_base
        (Sf_order.make ~om:`Depa ())
        inst.Synthetic.program
    in
    let perturbed =
      Chaos.arm ~seed ();
      Fun.protect ~finally:Chaos.disarm (fun () ->
          let inst = Synthetic.instantiate t in
          run_full ~workers:4 ~base:inst.Synthetic.mem_base
            (Sf_order.make ~om:`Depa ())
            inst.Synthetic.program)
    in
    check (Alcotest.list int)
      (Printf.sprintf "seed %d: chaos 4-domain depa race set = serial" seed)
      (racy_set serial) (racy_set perturbed)
  done

(* the backend-selection plumbing: the process-wide default must reach
   detectors built through the zero-argument registry makes (that is
   what `racedetect --om depa` relies on) *)
let test_backend_default () =
  let orig = Sfr_om.Backend.default () in
  Fun.protect
    ~finally:(fun () -> Sfr_om.Backend.set_default orig)
    (fun () ->
      Sfr_om.Backend.set_default `Depa;
      let inst =
        Synthetic.instantiate
          (Synthetic.generate ~seed:7 ~ops:150 ~depth:5 ~locs:8 ())
      in
      let det = Sf_order.make () in
      let _ = run_full ~base:inst.Synthetic.mem_base det inst.Synthetic.program in
      check int "default-backend run has no relabels" 0
        (metric det "om.relabels");
      check bool "default-backend run exercised depa labels" true
        (metric det "om.depa.path_bits" > 0))

let () =
  Alcotest.run "depa"
    [
      ( "differential",
        [
          Alcotest.test_case "workloads depa=list" `Quick
            test_workloads_differential;
          Alcotest.test_case "synthetic depa=list" `Quick
            test_synthetic_differential;
          Alcotest.test_case "f-order depa=list" `Quick test_forder_differential;
          Alcotest.test_case "4-domain race sets" `Quick
            test_parallel_differential;
          Alcotest.test_case "chaos 4-domain race sets" `Quick
            test_chaos_parallel;
        ] );
      ( "plumbing",
        [ Alcotest.test_case "process-wide default" `Quick test_backend_default ]
      );
    ]
