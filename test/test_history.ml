(* Direct unit tests for the detector substrate pieces not fully pinned by
   the differential tests: the access history's policies and update rules,
   the race collector, the exit maps, and the Events.pair combinator. *)

module Access_history = Sfr_detect.Access_history
module Race = Sfr_detect.Race
module Exit_map = Sfr_reach.Exit_map
module Events = Sfr_runtime.Events

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Access history — Keep_all                                            *)
(* ------------------------------------------------------------------ *)

(* toy accessors: integers compared by a fake "dag order" where a < b
   means a precedes b *)
let test_keepall_writer_checked_on_read () =
  let h = Access_history.create Access_history.Keep_all in
  let seen = ref [] in
  Access_history.on_write h ~loc:0 ~accessor:1 ~check:(fun ~prev:_ ~prev_is_writer:_ -> ());
  Access_history.on_read h ~loc:0 ~accessor:2 ~check_writer:(fun w -> seen := w :: !seen);
  check (Alcotest.list int) "read checked against last writer" [ 1 ] !seen;
  (* a different location is independent *)
  let seen2 = ref [] in
  Access_history.on_read h ~loc:1 ~accessor:3 ~check_writer:(fun w -> seen2 := w :: !seen2);
  check (Alcotest.list int) "fresh location has no writer" [] !seen2

let test_keepall_write_checks_all_readers () =
  let h = Access_history.create Access_history.Keep_all in
  List.iter
    (fun r -> Access_history.on_read h ~loc:7 ~accessor:r ~check_writer:(fun _ -> ()))
    [ 10; 20; 30 ];
  let checked = ref [] in
  Access_history.on_write h ~loc:7 ~accessor:99 ~check:(fun ~prev ~prev_is_writer ->
      check bool "readers are not writers" false prev_is_writer;
      checked := prev :: !checked);
  check (Alcotest.list int) "all readers checked" [ 10; 20; 30 ]
    (List.sort compare !checked);
  (* readers were cleared; next write checks only the last writer *)
  let checked2 = ref [] in
  Access_history.on_write h ~loc:7 ~accessor:100 ~check:(fun ~prev ~prev_is_writer ->
      check bool "now a writer" true prev_is_writer;
      checked2 := prev :: !checked2);
  check (Alcotest.list int) "only the writer remains" [ 99 ] !checked2

let test_keepall_same_strand_collapse () =
  let h = Access_history.create Access_history.Keep_all in
  let accessor = 42 in
  for _ = 1 to 100 do
    Access_history.on_read h ~loc:0 ~accessor ~check_writer:(fun _ -> ())
  done;
  check int "consecutive same-strand reads collapse" 1
    (Access_history.readers_stored h);
  check int "high-water mark" 1 (Access_history.max_readers_at_once h)

(* ------------------------------------------------------------------ *)
(* Access history — Lr_per_future                                       *)
(* ------------------------------------------------------------------ *)

(* accessors: (future, eng, heb) triples; covers = both orders less *)
type acc = { f : int; eng : int; heb : int }

let lr_policy =
  Access_history.Lr_per_future
    {
      future_of = (fun a -> a.f);
      more_left = (fun a b -> a.eng < b.eng);
      more_right = (fun a b -> a.heb < b.heb);
      covers = (fun a b -> a == b || (a.eng < b.eng && a.heb < b.heb));
    }

let test_lr_two_per_future () =
  let h = Access_history.create lr_policy in
  (* five pairwise-parallel readers in one future: eng ascending, heb
     descending *)
  for i = 1 to 5 do
    Access_history.on_read h ~loc:0
      ~accessor:{ f = 3; eng = i; heb = 6 - i }
      ~check_writer:(fun _ -> ())
  done;
  check int "at most two stored" 2 (Access_history.readers_stored h);
  let checked = ref [] in
  Access_history.on_write h ~loc:0 ~accessor:{ f = 0; eng = 100; heb = 100 }
    ~check:(fun ~prev ~prev_is_writer:_ -> checked := prev :: !checked);
  (* the two extremes survive: (eng 1, heb 5) and (eng 5, heb 1) *)
  let engs = List.sort compare (List.map (fun a -> a.eng) !checked) in
  check (Alcotest.list int) "extremes kept" [ 1; 5 ] engs

let test_lr_covered_replacement () =
  let h = Access_history.create lr_policy in
  (* serial chain: each reader covers the previous; only the last stays *)
  for i = 1 to 5 do
    Access_history.on_read h ~loc:0
      ~accessor:{ f = 1; eng = i; heb = i }
      ~check_writer:(fun _ -> ())
  done;
  let checked = ref [] in
  Access_history.on_write h ~loc:0 ~accessor:{ f = 0; eng = 10; heb = 10 }
    ~check:(fun ~prev ~prev_is_writer:_ -> checked := prev :: !checked);
  let uniq = List.sort_uniq compare (List.map (fun a -> a.eng) !checked) in
  check (Alcotest.list int) "only the covering reader remains" [ 5 ] uniq

let test_lr_per_future_isolation () =
  let h = Access_history.create lr_policy in
  List.iter
    (fun f ->
      Access_history.on_read h ~loc:0
        ~accessor:{ f; eng = f; heb = f }
        ~check_writer:(fun _ -> ()))
    [ 1; 2; 3 ];
  (* one (doubled) slot per future *)
  check int "2 per future" 6 (Access_history.readers_stored h)

(* The reader counters count slots: [insert] those a read stores,
   [evict] those a read replaces (a moved extreme, a superseded pair) or
   a write drops, so their difference is what stays stored. *)
let test_lr_reader_churn_counters () =
  let module Metrics = Sfr_obs.Metrics in
  Metrics.enable ();
  let base = Metrics.snapshot () in
  let h = Access_history.create lr_policy in
  let read a = Access_history.on_read h ~loc:0 ~accessor:a ~check_writer:(fun _ -> ()) in
  (* future 1, a chain: 2 stored, then four supersedes of 2 slots each *)
  for i = 1 to 5 do
    read { f = 1; eng = i; heb = i }
  done;
  (* future 3, parallel readers: 2 stored, then four rightmost moves *)
  for i = 1 to 5 do
    read { f = 3; eng = i; heb = 6 - i }
  done;
  let get name = try List.assoc name (Metrics.since base) with Not_found -> 0 in
  check int "inserts before the write" 16 (get "history.readers.insert");
  check int "evicts before the write" 12 (get "history.readers.evict");
  check int "stored" 4 (Access_history.readers_stored h);
  Access_history.on_write h ~loc:0 ~accessor:{ f = 0; eng = 100; heb = 100 }
    ~check:(fun ~prev:_ ~prev_is_writer:_ -> ());
  check int "inserts" 16 (get "history.readers.insert");
  check int "evicts" 16 (get "history.readers.evict")

(* ------------------------------------------------------------------ *)
(* Race collector                                                       *)
(* ------------------------------------------------------------------ *)

let test_race_collector () =
  let t = Race.create () in
  check (Alcotest.list int) "empty" [] (Race.racy_locations t);
  Race.report t ~loc:5 ~kind:Race.Write_write ~prev_future:1 ~cur_future:2;
  Race.report t ~loc:5 ~kind:Race.Read_write ~prev_future:3 ~cur_future:4;
  Race.report t ~loc:2 ~kind:Race.Write_read ~prev_future:0 ~cur_future:1;
  check (Alcotest.list int) "locations deduplicated and sorted" [ 2; 5 ]
    (Race.racy_locations t);
  check int "total witnessed" 3 (Race.total_witnessed t);
  match Race.reports t with
  | [ r2; r5 ] ->
      check int "loc 2 first" 2 r2.Race.loc;
      check int "loc 5 count" 2 r5.Race.count;
      check bool "first kind kept" true (r5.Race.kind = Race.Write_write)
  | _ -> Alcotest.fail "expected two reports"

let test_race_collector_concurrent () =
  let t = Race.create () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 249 do
              Race.report t ~loc:(i mod 10) ~kind:Race.Write_write
                ~prev_future:d ~cur_future:d
            done))
  in
  List.iter Domain.join domains;
  check int "all witnessed" 1000 (Race.total_witnessed t);
  check int "ten locations" 10 (List.length (Race.racy_locations t))

(* Four domains report into one collector over overlapping locations,
   each into its own slot table. The merged view counts every report,
   finds exactly the reported locations, and takes each location's kind
   and futures from a report actually made there. *)
let test_race_collector_merge () =
  let t = Race.create () in
  let n = 2000 in
  let kinds = [| Race.Read_write; Race.Write_write; Race.Write_read |] in
  let loc d i = i * (d + 1) mod 37 in
  let made d i = (kinds.((d + i) mod 3), d, i) in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to n - 1 do
              let kind, prev_future, cur_future = made d i in
              Race.report t ~loc:(loc d i) ~kind ~prev_future ~cur_future
            done))
  in
  List.iter Domain.join domains;
  let expected = Hashtbl.create 64 in
  for d = 0 to 3 do
    for i = 0 to n - 1 do
      let l = loc d i in
      Hashtbl.replace expected l (made d i :: Option.value ~default:[] (Hashtbl.find_opt expected l))
    done
  done;
  let locs = List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) expected []) in
  check (Alcotest.list int) "racy set" locs (Race.racy_locations t);
  check int "total witnessed" (4 * n) (Race.total_witnessed t);
  List.iter
    (fun (r : Race.report) ->
      let here = Hashtbl.find expected r.Race.loc in
      check int (Printf.sprintf "loc %d count" r.Race.loc) (List.length here) r.Race.count;
      check bool
        (Printf.sprintf "loc %d kind and futures were reported there" r.Race.loc)
        true
        (List.mem (r.Race.kind, r.Race.prev_future, r.Race.cur_future) here))
    (Race.reports t)

(* ------------------------------------------------------------------ *)
(* Exit maps                                                            *)
(* ------------------------------------------------------------------ *)

let test_exit_map_basic () =
  let eng = Exit_map.create () in
  let e = Exit_map.empty eng in
  let p1 = ref 1 and p2 = ref 2 in
  let t1 = Exit_map.with_exit eng e ~fid:4 p1 in
  let t1 = Exit_map.with_exit eng t1 ~fid:4 p2 in
  check int "two exits" 2 (List.length (Exit_map.exits t1 ~fid:4));
  check int "other fid empty" 0 (List.length (Exit_map.exits t1 ~fid:9));
  (* physical dedup *)
  let t1 = Exit_map.with_exit eng t1 ~fid:4 p1 in
  check int "no duplicate" 2 (List.length (Exit_map.exits t1 ~fid:4));
  Exit_map.release t1

let test_exit_map_cow () =
  let eng = Exit_map.create () in
  let p1 = ref 1 and p2 = ref 2 in
  let a = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:1 p1 in
  let b = Exit_map.share a in
  let a' = Exit_map.with_exit eng a ~fid:1 p2 in
  check int "a' extended" 2 (List.length (Exit_map.exits a' ~fid:1));
  check int "b untouched" 1 (List.length (Exit_map.exits b ~fid:1));
  Exit_map.release a';
  Exit_map.release b

let test_exit_map_merge () =
  let eng = Exit_map.create () in
  let p1 = ref 1 and p2 = ref 2 in
  let a = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:1 p1 in
  let b = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:2 p2 in
  let m = Exit_map.merge eng a [ b ] in
  check int "merged entries" 2 (Exit_map.entry_count m);
  (* subsuming merge avoids allocation *)
  let small = Exit_map.with_exit eng (Exit_map.empty eng) ~fid:1 p1 in
  let allocs = Exit_map.allocations eng in
  let m2 = Exit_map.merge eng small [ Exit_map.share m ] in
  check int "subsumed merge allocates nothing" allocs (Exit_map.allocations eng);
  Exit_map.release m2;
  Exit_map.release m

(* ------------------------------------------------------------------ *)
(* Events.pair                                                          *)
(* ------------------------------------------------------------------ *)

type Events.state += Tag of string

let counting_client tag log =
  let fresh op = Tag (tag ^ op) in
  {
    Events.on_spawn =
      (fun _ ->
        log := "spawn" :: !log;
        (fresh "c", fresh "t"));
    on_create =
      (fun _ ->
        log := "create" :: !log;
        (fresh "c", fresh "t"));
    on_sync =
      (fun ~cur:_ ~spawned_lasts:_ ~created_firsts:_ ->
        log := "sync" :: !log;
        fresh "s");
    on_put = (fun _ -> log := "put" :: !log);
    on_get =
      (fun ~cur:_ ~put:_ ->
        log := "get" :: !log;
        fresh "g");
    on_returned = (fun ~cont:_ ~child_last:_ -> log := "ret" :: !log);
    on_read = (fun _ _ -> log := "read" :: !log);
    on_write = (fun _ _ -> log := "write" :: !log);
    on_work = (fun _ _ -> log := "work" :: !log);
  }

let test_events_pair () =
  let la = ref [] and lb = ref [] in
  let cb = Events.pair (counting_client "a" la) (counting_client "b" lb) in
  let module P = Sfr_runtime.Program in
  let prog () =
    let arr = P.alloc 1 0 in
    P.spawn (fun () -> P.wr arr 0 1);
    P.sync ();
    let h = P.create (fun () -> P.rd arr 0) in
    ignore (P.get h);
    P.work 3
  in
  let (), _ =
    Sfr_runtime.Serial_exec.run cb
      ~root:(Events.Pair_state (Tag "ra", Tag "rb"))
      prog
  in
  check bool "both clients saw identical event streams" true (!la = !lb);
  List.iter
    (fun ev -> check bool (ev ^ " seen") true (List.mem ev !la))
    [ "spawn"; "sync"; "create"; "get"; "read"; "write"; "work"; "put" ]

let test_events_pair_rejects_foreign () =
  let cb = Events.pair Events.null Events.null in
  Alcotest.check_raises "foreign state rejected"
    (Invalid_argument "Events.pair: foreign state") (fun () ->
      ignore (cb.Events.on_spawn Events.Unit_state))

let () =
  Alcotest.run "history"
    [
      ( "keep_all",
        [
          Alcotest.test_case "writer checked on read" `Quick
            test_keepall_writer_checked_on_read;
          Alcotest.test_case "write checks all readers" `Quick
            test_keepall_write_checks_all_readers;
          Alcotest.test_case "same-strand collapse" `Quick
            test_keepall_same_strand_collapse;
        ] );
      ( "lr_per_future",
        [
          Alcotest.test_case "two per future" `Quick test_lr_two_per_future;
          Alcotest.test_case "covered replacement" `Quick test_lr_covered_replacement;
          Alcotest.test_case "per-future isolation" `Quick test_lr_per_future_isolation;
          Alcotest.test_case "reader churn counters" `Quick test_lr_reader_churn_counters;
        ] );
      ( "race_collector",
        [
          Alcotest.test_case "dedup and counts" `Quick test_race_collector;
          Alcotest.test_case "concurrent reports" `Quick test_race_collector_concurrent;
          Alcotest.test_case "per-domain merge" `Quick test_race_collector_merge;
        ] );
      ( "exit_map",
        [
          Alcotest.test_case "basic" `Quick test_exit_map_basic;
          Alcotest.test_case "copy-on-write" `Quick test_exit_map_cow;
          Alcotest.test_case "merge" `Quick test_exit_map_merge;
        ] );
      ( "events",
        [
          Alcotest.test_case "pair mirrors events" `Quick test_events_pair;
          Alcotest.test_case "pair rejects foreign state" `Quick
            test_events_pair_rejects_foreign;
        ] );
    ]
