(* Tests of the benchmark's own logic: the tail-percentile rule, seed
   determinism of the plan, correctness accounting, and the agreement
   of the printed metric names with BENCHMARK.json. *)

open Perfbench

let test_tail_rule () =
  let check n expected =
    Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) expected (Pstats.tail_percentile n)
  in
  check 1000 (Some 990);
  check 999 (Some 950);
  check 10_000 (Some 999);
  check 200 (Some 950);
  check 100 (Some 900);
  check 40 (Some 750);
  check 20 (Some 500);
  check 19 None;
  check 0 None;
  (* p99 of 1000 samples has exactly ten beyond it *)
  Alcotest.(check int) "beyond p99 at 1000" 10 (Pstats.beyond ~n:1000 990);
  Alcotest.(check int) "beyond p99.9 at 1000" 1 (Pstats.beyond ~n:1000 999)

let test_percentiles () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "nearest-rank p99" 990.0 (Pstats.percentile xs 990);
  Alcotest.(check (float 0.0)) "nearest-rank p50" 500.0 (Pstats.percentile xs 500);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Pstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let q1, q3 = Pstats.quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "q1" 2.0 q1;
  Alcotest.(check (float 1e-9)) "q3" 4.0 q3

let jobs seed pass = Plan.pass_jobs ~seed ~pass [ 0; 1; 2; 3; 4 ]

let sessions seed =
  let next = Plan.session_sequence ~seed ~n_images:10 in
  List.init 200 (fun _ -> next ())

let candidates seed =
  let next = Plan.synthetic_candidates ~seed in
  List.init 6 (fun _ -> next ())

(* the paper-suite inputs of passes 0 to 3 *)
let injections seed = List.init 4 (fun pass -> Plan.paper_pass_inputs ~seed ~pass)

let test_same_seed_same_plan () =
  Alcotest.(check bool) "jobs" true (jobs 7 0 = jobs 7 0 && jobs 7 3 = jobs 7 3);
  Alcotest.(check (list int)) "sessions" (sessions 7) (sessions 7);
  Alcotest.(check bool) "injections" true (injections 7 = injections 7);
  Alcotest.(check (list int)) "synthetic seeds" (candidates 7) (candidates 7)

let test_seeds_differ () =
  Alcotest.(check bool) "jobs" false (jobs 7 0 = jobs 8 0);
  Alcotest.(check bool) "passes" false (jobs 7 0 = jobs 7 1);
  Alcotest.(check bool) "sessions" false (sessions 7 = sessions 8);
  Alcotest.(check bool) "injections" false (List.for_all (fun s -> injections s = injections 7) [ 8; 9; 10; 11 ]);
  (* each program alternates instances, so two passes cover all ten *)
  Alcotest.(check (list int)) "two passes cover every input" (List.init 10 Fun.id)
    (List.sort compare (Plan.paper_pass_inputs ~seed:7 ~pass:0 @ Plan.paper_pass_inputs ~seed:7 ~pass:1));
  Alcotest.(check bool) "synthetic seeds" false (candidates 7 = candidates 8);
  (* every pass covers every input under every configuration *)
  Alcotest.(check int) "pass coverage" 20 (List.length (List.sort_uniq compare (jobs 7 0)));
  Alcotest.(check int) "pass size" 40 (List.length (jobs 7 0))

let expected = { Account.racy = [ 3; 17 ]; events = 120 }

let test_planted_wrong_verdict () =
  let a = Account.create () in
  let record ~verified ~racy ~reported =
    Account.record a ~ok:(Account.job_ok ~expected ~verified ~racy ~reported) ~what:"job"
  in
  record ~verified:(Some true) ~racy:(Some [ 3; 17 ]) ~reported:[ 3; 17 ];
  Alcotest.(check int) "matching verdict passes" 0 a.Account.failed;
  (* the same output checked against a planted wrong expectation *)
  let wrong = { expected with Account.racy = [ 3 ] } in
  Account.record a
    ~ok:(Account.job_ok ~expected:wrong ~verified:(Some true) ~racy:(Some [ 3; 17 ]) ~reported:[ 3; 17 ])
    ~what:"planted";
  Alcotest.(check int) "planted wrong verdict fails" 1 a.Account.failed;
  record ~verified:(Some false) ~racy:(Some [ 3; 17 ]) ~reported:[ 3; 17 ];
  record ~verified:None ~racy:None ~reported:[ 3 ];
  Alcotest.(check int) "failed output check, stray race" 3 a.Account.failed;
  Alcotest.(check int) "attempted" 4 a.Account.attempted;
  Alcotest.(check (float 1e-9)) "failed_frac" 0.75 (Account.failed_frac a);
  let ok code races events = Account.session_ok ~expected ~code ~races ~events in
  Alcotest.(check bool) "session ok" true (ok Sfr_serve.Frame.Ok_races 2 120);
  Alcotest.(check bool) "session wrong count" false (ok Sfr_serve.Frame.Ok_races 1 120);
  Alcotest.(check bool) "session short" false (ok Sfr_serve.Frame.Ok_races 2 119);
  Alcotest.(check bool) "session torn" false (ok Sfr_serve.Frame.Err_torn 2 120)

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Sfr_obs.Json_min.parse text with Ok j -> j | Error e -> Alcotest.fail e

let declared key =
  match Sfr_obs.Json_min.member key (benchmark_json ()) with
  | Some (Sfr_obs.Json_min.Arr ms) ->
      List.map
        (fun m ->
          match (Sfr_obs.Json_min.member "name" m, Sfr_obs.Json_min.member "unit" m) with
          | Some (Sfr_obs.Json_min.Str n), Some (Sfr_obs.Json_min.Str u) -> (n, u)
          | _ -> Alcotest.fail ("malformed entry in " ^ key))
        ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let printed_names names =
  let ms = List.map (fun (n, _) -> Output.metric n 1.5) names in
  let line = Output.result_json ~account:(Account.create ()) ~names ms in
  match Sfr_obs.Json_min.parse line with
  | Ok j -> (
      match Sfr_obs.Json_min.member "metrics" j with
      | Some (Sfr_obs.Json_min.Obj kvs) ->
          List.map
            (fun (k, v) ->
              match Sfr_obs.Json_min.member "unit" v with
              | Some (Sfr_obs.Json_min.Str u) -> (k, u)
              | _ -> Alcotest.fail "metric without unit")
            kvs
      | _ -> Alcotest.fail "no metrics object")
  | Error e -> Alcotest.fail e

let pair = Alcotest.(list (pair string string))

let test_names_match () =
  Alcotest.check pair "end_to_end" (declared "end_to_end") (printed_names Names.end_to_end);
  Alcotest.check pair "per_layer" (declared "per_layer") (printed_names Names.per_layer);
  let workloads =
    match Sfr_obs.Json_min.member "workloads" (benchmark_json ()) with
    | Some (Sfr_obs.Json_min.Arr ws) ->
        List.filter_map
          (fun w ->
            match Sfr_obs.Json_min.member "name" w with
            | Some (Sfr_obs.Json_min.Str n) -> Some n
            | _ -> None)
          ws
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Plan.workloads) workloads

let test_result_line () =
  let a = Account.create () in
  Account.record a ~ok:true ~what:"x";
  let line =
    Output.result_json ~account:a ~names:[ ("setup_s", "s") ] [ Output.metric "setup_s" 0.8127 ]
  in
  match Sfr_obs.Json_min.parse line with
  | Ok (Sfr_obs.Json_min.Obj kvs) ->
      Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs)
  | _ -> Alcotest.fail "result line is not a JSON object"

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "plan",
        [
          Alcotest.test_case "same seed, same plan" `Quick test_same_seed_same_plan;
          Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
        ] );
      ("account", [ Alcotest.test_case "planted wrong verdict" `Quick test_planted_wrong_verdict ]);
      ( "output",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_names_match;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
