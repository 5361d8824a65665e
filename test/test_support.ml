(* Unit and property tests for the support substrate: bitsets, union-find,
   PRNG determinism, stats, and table rendering. *)

module Bitset = Sfr_support.Bitset
module Union_find = Sfr_support.Union_find
module Prng = Sfr_support.Prng
module Stats = Sfr_support.Stats
module Tablefmt = Sfr_support.Tablefmt

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Bitset unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bitset_empty () =
  let s = Bitset.create () in
  check bool "empty" true (Bitset.is_empty s);
  check int "cardinal" 0 (Bitset.cardinal s);
  check bool "mem out of range" false (Bitset.mem s 1000)

let test_bitset_add_mem () =
  let s = Bitset.create () in
  Bitset.add s 0;
  Bitset.add s 62;
  Bitset.add s 63;
  Bitset.add s 1000;
  check bool "mem 0" true (Bitset.mem s 0);
  check bool "mem 62" true (Bitset.mem s 62);
  check bool "mem 63" true (Bitset.mem s 63);
  check bool "mem 1000" true (Bitset.mem s 1000);
  check bool "mem 64" false (Bitset.mem s 64);
  check int "cardinal" 4 (Bitset.cardinal s)

let test_bitset_remove () =
  let s = Bitset.singleton 42 in
  check bool "mem before" true (Bitset.mem s 42);
  Bitset.remove s 42;
  check bool "mem after" false (Bitset.mem s 42);
  Bitset.remove s 9999 (* out of range removal is a no-op *)

let test_bitset_union () =
  let a = Bitset.singleton 1 and b = Bitset.singleton 200 in
  Bitset.union_into ~dst:a b;
  check bool "has 1" true (Bitset.mem a 1);
  check bool "has 200" true (Bitset.mem a 200);
  check bool "b unchanged" false (Bitset.mem b 1)

let test_bitset_subset () =
  let a = Bitset.create () and b = Bitset.create () in
  Bitset.add a 3;
  Bitset.add b 3;
  Bitset.add b 70;
  check bool "a subset b" true (Bitset.subset a b);
  check bool "b not subset a" false (Bitset.subset b a);
  check bool "empty subset" true (Bitset.subset (Bitset.create ()) a)

let test_bitset_private_bits () =
  let a = Bitset.singleton 1 and b = Bitset.singleton 2 in
  check bool "disjoint -> both private" true (Bitset.each_side_has_private_bit a b);
  let c = Bitset.copy a in
  Bitset.add c 2;
  check bool "superset -> no" false (Bitset.each_side_has_private_bit a c);
  check bool "symmetric" false (Bitset.each_side_has_private_bit c a);
  check bool "equal -> no" false (Bitset.each_side_has_private_bit a (Bitset.copy a))

let test_bitset_elements () =
  let s = Bitset.create () in
  List.iter (Bitset.add s) [ 5; 1; 300; 64 ];
  check (Alcotest.list int) "sorted elements" [ 1; 5; 64; 300 ] (Bitset.elements s)

(* ------------------------------------------------------------------ *)
(* Bitset property tests vs a reference model                          *)
(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> `Add i) (int_bound 500);
        map (fun i -> `Remove i) (int_bound 500);
      ])

let apply_ops ops =
  let s = Bitset.create () in
  let model =
    List.fold_left
      (fun model op ->
        match op with
        | `Add i ->
            Bitset.add s i;
            IntSet.add i model
        | `Remove i ->
            Bitset.remove s i;
            IntSet.remove i model)
      IntSet.empty ops
  in
  (s, model)

let prop_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with Set model" ~count:300
    QCheck2.Gen.(list_size (int_bound 60) op_gen)
    (fun ops ->
      let s, model = apply_ops ops in
      IntSet.elements model = Bitset.elements s
      && IntSet.cardinal model = Bitset.cardinal s
      && List.for_all (fun i -> Bitset.mem s i = IntSet.mem i model)
           (List.init 501 Fun.id))

let prop_bitset_union =
  QCheck2.Test.make ~name:"bitset union agrees with Set union" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_bound 40) op_gen) (list_size (int_bound 40) op_gen))
    (fun (ops_a, ops_b) ->
      let a, ma = apply_ops ops_a in
      let b, mb = apply_ops ops_b in
      Bitset.union_into ~dst:a b;
      IntSet.elements (IntSet.union ma mb) = Bitset.elements a)

let prop_bitset_subset =
  QCheck2.Test.make ~name:"bitset subset agrees with Set subset" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_bound 40) op_gen) (list_size (int_bound 40) op_gen))
    (fun (ops_a, ops_b) ->
      let a, ma = apply_ops ops_a in
      let b, mb = apply_ops ops_b in
      Bitset.subset a b = IntSet.subset ma mb
      && Bitset.each_side_has_private_bit a b
         = (not (IntSet.subset ma mb) && not (IntSet.subset mb ma)))

(* Operands sized independently (a capacity wider than the members
   leaves trailing zero words), so [subset] meets every length pairing:
   a longer than b with zeros or members past b's end, and the reverse. *)
let prop_bitset_subset_lengths =
  let side =
    QCheck2.Gen.(pair (int_bound 400) (list_size (int_bound 12) (int_bound 300)))
  in
  QCheck2.Test.make ~name:"bitset subset equals the list model, unequal lengths"
    ~count:500 (QCheck2.Gen.pair side side)
    (fun ((cap_a, la), (cap_b, lb)) ->
      let build cap l =
        let s = Bitset.create ~capacity:cap () in
        List.iter (Bitset.add s) l;
        s
      in
      Bitset.subset (build cap_a la) (build cap_b lb)
      = List.for_all (fun x -> List.mem x lb) la)

(* SWAR popcount vs a bit-probing reference, across the whole word
   including the sign bit (the 63rd bit of an OCaml int). *)
let popcount_ref x =
  let n = ref 0 in
  for i = 0 to Sys.int_size - 1 do
    if x land (1 lsl i) <> 0 then incr n
  done;
  !n

let test_popcount_boundaries () =
  List.iter
    (fun x ->
      check int (Printf.sprintf "popcount %#x" x) (popcount_ref x)
        (Bitset.popcount_word x))
    [ 0; 1; -1; 2; 3; max_int; min_int; min_int + 1; 1 lsl 62; (1 lsl 62) - 1;
      1 lsl 31; (1 lsl 31) - 1; 0x0F0F; -2; lnot 1 ]

let prop_popcount_model =
  QCheck2.Test.make ~name:"SWAR popcount agrees with bit probing" ~count:2000
    QCheck2.Gen.(map Int64.to_int int64)
    (fun x -> Bitset.popcount_word x = popcount_ref x)

(* iter must produce exactly the members, ascending, including bits at
   word boundaries (62/63/64 on a 63-bit-int build) *)
let test_iter_word_boundaries () =
  let s = Bitset.create () in
  let members = [ 0; 1; 61; 62; 63; 64; 125; 126; 127; 500 ] in
  List.iter (Bitset.add s) members;
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  check (Alcotest.list int) "iter ascending over boundaries" members
    (List.rev !seen)

let prop_iter_model =
  QCheck2.Test.make ~name:"LSB iter visits exactly the members, ascending"
    ~count:300
    QCheck2.Gen.(list_size (int_bound 60) op_gen)
    (fun ops ->
      let s, model = apply_ops ops in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) s;
      List.rev !seen = IntSet.elements model)

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_uf_basic () =
  let t = Union_find.create () in
  let a = Union_find.make_set t in
  let b = Union_find.make_set t in
  let c = Union_find.make_set t in
  check bool "distinct" false (Union_find.same t a b);
  let _ = Union_find.union t a b in
  check bool "merged" true (Union_find.same t a b);
  check bool "c apart" false (Union_find.same t a c);
  let _ = Union_find.union t b c in
  check bool "transitive" true (Union_find.same t a c);
  check int "count" 3 (Union_find.count t)

(* Reference model: partition as a map from element to a canonical member
   computed by naive flooding. *)
let prop_uf_model =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 30) (list_size (int_bound 60) (pair (int_bound 29) (int_bound 29))))
  in
  QCheck2.Test.make ~name:"union-find agrees with naive partition" ~count:200 gen
    (fun (n, unions) ->
      let unions = List.filter (fun (a, b) -> a < n && b < n) unions in
      let t = Union_find.create () in
      for _ = 1 to n do
        ignore (Union_find.make_set t)
      done;
      List.iter (fun (a, b) -> ignore (Union_find.union t a b)) unions;
      (* naive model: repeatedly propagate minimum representative *)
      let repr = Array.init n Fun.id in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b) ->
            let m = min repr.(a) repr.(b) in
            if repr.(a) <> m || repr.(b) <> m then begin
              (* unify the two classes entirely *)
              let ra = repr.(a) and rb = repr.(b) in
              Array.iteri (fun i r -> if r = ra || r = rb then repr.(i) <- m) repr;
              changed := true
            end)
          unions
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Union_find.same t i j <> (repr.(i) = repr.(j)) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let c = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Prng.int c 1_000_000) in
  check bool "split streams differ" true (xs <> ys)

let prop_prng_bounds =
  QCheck2.Test.make ~name:"prng int stays in bounds" ~count:200
    QCheck2.Gen.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.int g bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_prng_float_bounds =
  QCheck2.Test.make ~name:"prng float stays in bounds" ~count:200
    QCheck2.Gen.small_int
    (fun seed ->
      let g = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.float g 3.5 in
          v >= 0.0 && v < 3.5)
        (List.init 50 Fun.id))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let flt = Alcotest.float 1e-9

let test_stats_mean () =
  check flt "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check bool "mean empty is nan" true (Float.is_nan (Stats.mean []))

let test_stats_stddev () =
  check flt "stddev constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check flt "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_median () =
  check flt "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check flt "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check bool "empty is nan" true (Float.is_nan (Stats.median []))

let test_stats_median_nan () =
  (* Float.compare sorts nan below every number, so the result is
     deterministic — unlike polymorphic compare, whose nan ordering is
     unspecified and could make the median depend on input order. *)
  check bool "all-nan is nan" true (Float.is_nan (Stats.median [ nan ]));
  check flt "nan sorts first (odd)" 1.0 (Stats.median [ 1.0; nan; 3.0 ]);
  check flt "nan sorts first, any order" 1.0 (Stats.median [ 3.0; 1.0; nan ]);
  check flt "nan sorts first (even)" 1.5
    (Stats.median [ nan; 2.0; 1.0; 7.0 ])

let test_stats_minmax () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.0 ] in
  check flt "min" (-1.0) lo;
  check flt "max" 7.0 hi

let test_stats_repeat () =
  let result, times = Stats.repeat_timed 5 (fun () -> 42) in
  check int "result" 42 result;
  check int "five timings" 5 (List.length times);
  List.iter (fun t -> check bool "non-negative" true (t >= 0.0)) times

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t =
    Tablefmt.create ~title:"demo" [ ("name", Tablefmt.Left); ("n", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "b"; "100" ];
  let s = Tablefmt.render t in
  check bool "has title" true (String.length s > 4 && String.sub s 0 4 = "demo");
  check bool "contains alpha" true (contains_substring s "alpha");
  check bool "contains header" true (contains_substring s "name")

let test_table_cells () =
  check Alcotest.string "times" "(37.84x)" (Tablefmt.cell_times 37.84);
  check Alcotest.string "speedup" "[19.10x]" (Tablefmt.cell_speedup 19.1);
  check Alcotest.string "small int" "4200" (Tablefmt.cell_int_compact 4200);
  check Alcotest.string "big int" "1.72e10" (Tablefmt.cell_int_compact 17_200_000_000)

let test_table_mismatch () =
  let t = Tablefmt.create [ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "row width checked" (Invalid_argument "Tablefmt.add_row: cell count mismatch")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitset_model;
      prop_bitset_union;
      prop_bitset_subset;
      prop_bitset_subset_lengths;
      prop_popcount_model;
      prop_iter_model;
      prop_uf_model;
      prop_prng_bounds;
      prop_prng_float_bounds;
    ]

let () =
  Alcotest.run "support"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/mem" `Quick test_bitset_add_mem;
          Alcotest.test_case "remove" `Quick test_bitset_remove;
          Alcotest.test_case "union" `Quick test_bitset_union;
          Alcotest.test_case "subset" `Quick test_bitset_subset;
          Alcotest.test_case "private bits" `Quick test_bitset_private_bits;
          Alcotest.test_case "elements sorted" `Quick test_bitset_elements;
          Alcotest.test_case "popcount boundaries" `Quick test_popcount_boundaries;
          Alcotest.test_case "iter word boundaries" `Quick test_iter_word_boundaries;
        ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_uf_basic ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "median nan" `Quick test_stats_median_nan;
          Alcotest.test_case "min_max" `Quick test_stats_minmax;
          Alcotest.test_case "repeat_timed" `Quick test_stats_repeat;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
        ] );
      ("properties", qtests);
    ]
