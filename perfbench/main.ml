(* perfbench: the repository benchmark. Run through run.sh:

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Prints an env block and a ledger as '#' lines, then one JSON result
   line. See README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-suite|futures-dense|serve-stream --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Plan.workload_of_string v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec > 0.0 -> (w, s, sec, t)
  | _ -> usage ()

(* The commit, read from .git when the checkout has one. *)
let git_sha () =
  let read path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ ref_) with
      | Some sha -> sha
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
              match
                List.find_opt
                  (fun line -> Filename.check_suffix line (" " ^ ref_))
                  (String.split_on_char '\n' packed)
              with
              | Some line -> List.hd (String.split_on_char ' ' line)
              | None -> "unknown")))
  | Some sha -> sha
  | None -> "unknown"

(* The access-history mode the default detector resolves to, observed
   rather than assumed: a tiny run either takes history locks or not. *)
let history_mode () =
  let w = Option.get (Sfr_workloads.Registry.find "mm") in
  let inst = w.Sfr_workloads.Workload.instantiate Sfr_workloads.Workload.Tiny in
  let det = Detect.detector "sf-order" () in
  ignore
    (Sfr_runtime.Par_exec.run ~workers:2 det.Sfr_detect.Detector.callbacks
       ~root:det.Sfr_detect.Detector.root inst.Sfr_workloads.Workload.program);
  match List.assoc_opt "history.lock.acquire" (det.Sfr_detect.Detector.metrics ()) with
  | Some n when n > 0 -> "mutex"
  | _ -> "lock-free"

let median_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    let t0 = Probe.now_ns () in
    last := Some (f ());
    times := Probe.secs_since t0 :: !times
  done;
  (Option.get !last, List.rev !times)

(* set-up runs several times and reports the median; serve-stream's is
   short and a daemon start dominates it, so it repeats more *)
let setup_repeats = function Plan.Serve_stream -> 9 | _ -> 3

let () =
  let workload, seed, seconds, traced = parse_args () in
  let out_dir = ".perfbench" in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let spans = Spans.create ~on:traced in
  let env =
    [
      ("workload", Plan.workload_name workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", string_of_bool traced);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("git_sha", git_sha ());
      ("detector", "sf-order (registry)");
      ("om_backend", Sfr_om.Backend.to_string (Sfr_om.Backend.default ()));
      ("history_mode", history_mode ());
    ]
  in
  let env, account, e2e, layers =
    match workload with
    | Plan.Paper_suite | Plan.Futures_dense ->
        let inputs, setup_times =
          median_setup (setup_repeats workload) (fun () -> Detect.setup ~workload ~seed)
        in
        let shape =
          (match workload with
          | Plan.Paper_suite -> [ ("oracle", "vc-order, serial"); ("scale", "default") ]
          | _ ->
              [
                ("oracle", Detect.synth_oracle ^ ", serial");
                ( "synthetic",
                  Printf.sprintf "ops=%d depth=%d locs=%d racy" Detect.synth_ops Detect.synth_depth
                    Detect.synth_locs );
              ])
          @ [
              ( "inputs",
                String.concat " " (Array.to_list (Array.map (fun i -> i.Detect.label) inputs)) );
            ]
        in
        let account, e2e, layers, passes =
          Detect.run ~workload ~seed ~seconds ~traced ~spans ~setup_times ~inputs
        in
        ( env @ shape
          @ [
              ("domains", "2 (full@1: 1)");
              ("passes", string_of_int passes);
              ( "events_per_pass",
                string_of_int
                  (Array.fold_left (fun a i -> a + i.Detect.expected.Account.events) 0 inputs) );
            ],
          account,
          e2e,
          layers )
    | Plan.Serve_stream -> Serve_load.main ~seed ~seconds ~traced ~spans ~env ~setup_repeats:(setup_repeats workload)
  in
  Output.print_env env;
  Output.print_ledger ~title:"end-to-end" e2e;
  if traced then Output.print_ledger ~title:"per-layer (traced run)" layers;
  Printf.printf "# failed_frac %.6g (failed %d / attempted %d)%s\n" (Account.failed_frac account)
    account.Account.failed account.Account.attempted
    (match account.Account.first_failures with
    | [] -> ""
    | fs -> " first: " ^ String.concat "; " (List.rev fs));
  if traced then begin
    let path =
      Printf.sprintf "%s/spans-%s-%d.jsonl" out_dir (Plan.workload_name workload) seed
    in
    Spans.write spans path;
    Printf.printf "# wrote %d spans to %s\n" (Spans.count spans) path
  end;
  if traced then Output.print_result ~account ~names:Names.per_layer layers
  else Output.print_result ~account ~names:Names.end_to_end e2e
