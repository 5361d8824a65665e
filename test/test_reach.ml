(* Tests for the reachability layer.

   The centerpiece is a serial interpreter of random structured-futures
   programs that simultaneously (a) records the dag, (b) maintains
   SP-Order positions (English/Hebrew OM lists over the pseudo-SP-dag) and
   (c) maintains SP-bags; both online structures are then differential-
   tested against ground-truth PSP reachability from the recorded dag. *)

module Dag = Sfr_dag.Dag
module Dag_algo = Sfr_dag.Dag_algo
module Sp_order = Sfr_reach.Sp_order
module Sp_bags = Sfr_reach.Sp_bags
module Fp_sets = Sfr_reach.Fp_sets
module Future_tree = Sfr_reach.Future_tree
module Metrics = Sfr_obs.Metrics
module Prng = Sfr_support.Prng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Sp_order unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_sporder_spawn_relations () =
  let t, root = Sp_order.create () in
  let child, cont, _b = Sp_order.spawn t ~cur:root ~block:None in
  check bool "root -> child" true (Sp_order.precedes t root child);
  check bool "root -> cont" true (Sp_order.precedes t root cont);
  check bool "child || cont" true (Sp_order.parallel t child cont);
  check bool "not child -> root" false (Sp_order.precedes t child root)

let test_sporder_sync_joins () =
  let t, root = Sp_order.create () in
  let child, cont, b = Sp_order.spawn t ~cur:root ~block:None in
  let s = Sp_order.sync t ~cur:cont ~block:(Some b) in
  check bool "child -> sync" true (Sp_order.precedes t child s);
  check bool "cont -> sync" true (Sp_order.precedes t cont s);
  check bool "root -> sync" true (Sp_order.precedes t root s)

let test_sporder_two_spawns_one_block () =
  let t, root = Sp_order.create () in
  let c1, t1, b = Sp_order.spawn t ~cur:root ~block:None in
  let c2, t2, b = Sp_order.spawn t ~cur:t1 ~block:(Some b) in
  check bool "c1 || c2" true (Sp_order.parallel t c1 c2);
  check bool "c1 || t2" true (Sp_order.parallel t c1 t2);
  check bool "c2 || t2" true (Sp_order.parallel t c2 t2);
  check bool "t1 -> t2" true (Sp_order.precedes t t1 t2);
  let s = Sp_order.sync t ~cur:t2 ~block:(Some b) in
  check bool "c1 -> s" true (Sp_order.precedes t c1 s);
  check bool "c2 -> s" true (Sp_order.precedes t c2 s)

let test_sporder_sync_without_block () =
  let t, root = Sp_order.create () in
  let s = Sp_order.sync t ~cur:root ~block:None in
  check bool "no-op sync keeps position" false (Sp_order.precedes t root s);
  check bool "and stays ordered with later inserts" true
    (let later = Sp_order.step t ~cur:s in
     Sp_order.precedes t root later)

let test_sporder_step_serial () =
  let t, root = Sp_order.create () in
  let a = Sp_order.step t ~cur:root in
  let b = Sp_order.step t ~cur:a in
  check bool "root -> a" true (Sp_order.precedes t root a);
  check bool "a -> b" true (Sp_order.precedes t a b);
  check bool "root -> b" true (Sp_order.precedes t root b)

(* ------------------------------------------------------------------ *)
(* Sp_bags unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_spbags_spawn_sync () =
  let t, rootf = Sp_bags.create () in
  let child = Sp_bags.spawn_child t in
  (* while the child executes, the parent frame is serial with it? No:
     queries are about *previous accessors* vs the current point. Simulate:
     child executes and returns. *)
  Sp_bags.sync t child;
  Sp_bags.child_returned t ~parent:rootf ~child;
  (* now executing the parent continuation: the child's accesses are
     logically parallel *)
  check bool "child parallel after return" false
    (Sp_bags.is_serial_with_current t child);
  check bool "own frame serial" true (Sp_bags.is_serial_with_current t rootf);
  Sp_bags.sync t rootf;
  check bool "child serial after sync" true (Sp_bags.is_serial_with_current t child)

let test_spbags_nested () =
  let t, rootf = Sp_bags.create () in
  let a = Sp_bags.spawn_child t in
  (* inside a: spawn b *)
  let b = Sp_bags.spawn_child t in
  Sp_bags.sync t b;
  Sp_bags.child_returned t ~parent:a ~child:b;
  check bool "b parallel inside a" false (Sp_bags.is_serial_with_current t b);
  Sp_bags.sync t a;
  check bool "b serial after a's sync" true (Sp_bags.is_serial_with_current t b);
  Sp_bags.child_returned t ~parent:rootf ~child:a;
  check bool "a parallel after return" false (Sp_bags.is_serial_with_current t a);
  check bool "b parallel too (inside a's bag)" false
    (Sp_bags.is_serial_with_current t b);
  Sp_bags.sync t rootf;
  check bool "all serial after root sync" true
    (Sp_bags.is_serial_with_current t a && Sp_bags.is_serial_with_current t b)

(* ------------------------------------------------------------------ *)
(* Fp_sets unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_fpsets_basic backend () =
  let eng = Fp_sets.create backend in
  let e = Fp_sets.empty eng in
  check bool "empty has no members" false (Fp_sets.mem e 3);
  let a = Fp_sets.with_added eng e 3 in
  check bool "added" true (Fp_sets.mem a 3);
  (* the canonical empty table must not have been mutated *)
  let e2 = Fp_sets.empty eng in
  check bool "empty still empty" false (Fp_sets.mem e2 3);
  Fp_sets.release e2;
  Fp_sets.release a

let test_fpsets_share_forces_copy backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let b = Fp_sets.share a in
  (* a is shared; adding must not disturb b's view *)
  let a' = Fp_sets.with_added eng a 2 in
  check bool "a' has both" true (Fp_sets.mem a' 1 && Fp_sets.mem a' 2);
  check bool "b unchanged" false (Fp_sets.mem b 2);
  Fp_sets.release a';
  Fp_sets.release b

let test_fpsets_immutable_add backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let keep = Fp_sets.share a in
  let a = Fp_sets.with_added eng a 2 in
  let a = Fp_sets.with_added eng a 3 in
  check (Alcotest.list int) "elements" [ 1; 2; 3 ] (Fp_sets.elements a);
  (* published tables are immutable: the old reference is untouched *)
  check (Alcotest.list int) "snapshot unchanged" [ 1 ] (Fp_sets.elements keep);
  (* adding a present element is the identity *)
  let allocs = Fp_sets.allocations eng in
  let a = Fp_sets.with_added eng a 2 in
  check int "present add allocates nothing" allocs (Fp_sets.allocations eng);
  Fp_sets.release keep;
  Fp_sets.release a

let test_fpsets_merge_subsume backend () =
  let eng = Fp_sets.create backend in
  let big = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let big = Fp_sets.with_added eng big 2 in
  let small = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let allocs_before = Fp_sets.allocations eng in
  let m = Fp_sets.merge eng small [ big ] in
  check int "subsuming merge allocates nothing" allocs_before
    (Fp_sets.allocations eng);
  check (Alcotest.list int) "merge result" [ 1; 2 ] (Fp_sets.elements m);
  Fp_sets.release m

let test_fpsets_merge_allocates backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let b = Fp_sets.with_added eng (Fp_sets.empty eng) 2 in
  let allocs_before = Fp_sets.allocations eng in
  let m = Fp_sets.merge eng a [ b ] in
  check int "true merge allocates once" (allocs_before + 1)
    (Fp_sets.allocations eng);
  check (Alcotest.list int) "merge result" [ 1; 2 ] (Fp_sets.elements m);
  Fp_sets.release m

let test_fpsets_merge_duplicates backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let dup = Fp_sets.share a in
  let m = Fp_sets.merge eng a [ dup ] in
  check (Alcotest.list int) "dup merge" [ 1 ] (Fp_sets.elements m);
  let m = Fp_sets.with_added eng m 2 in
  check (Alcotest.list int) "extended" [ 1; 2 ] (Fp_sets.elements m);
  Fp_sets.release m

(* a get's gp(cur) ∪ gp(last G) ∪ {G} costs at most one table *)
let test_fpsets_merge_add backend () =
  let eng = Fp_sets.create backend in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 1 in
  let b = Fp_sets.with_added eng (Fp_sets.empty eng) 2 in
  let before = Fp_sets.allocations eng in
  let m = Fp_sets.merge_add eng a [ b ] 3 in
  check int "union plus element: one allocation" (before + 1) (Fp_sets.allocations eng);
  check (Alcotest.list int) "union plus element" [ 1; 2; 3 ] (Fp_sets.elements m);
  check int "cached cardinal" 3 (Fp_sets.cardinal m);
  let sub = Fp_sets.with_added eng (Fp_sets.empty eng) 2 in
  let before = Fp_sets.allocations eng in
  let m2 = Fp_sets.merge_add eng (Fp_sets.share m) [ sub ] 1 in
  check bool "subsuming input holding the element is reused" true (m2 == m);
  check int "no allocation" before (Fp_sets.allocations eng);
  let m3 = Fp_sets.merge_add eng m2 [] 7 in
  check int "single input lacking the element: one copy" (before + 1)
    (Fp_sets.allocations eng);
  check (Alcotest.list int) "copy extended" [ 1; 2; 3; 7 ] (Fp_sets.elements m3);
  check (Alcotest.list int) "input unchanged" [ 1; 2; 3 ] (Fp_sets.elements m);
  check int "cached cardinal after add" 4 (Fp_sets.cardinal m3);
  Fp_sets.release m;
  Fp_sets.release m3

let test_fpsets_live_words backend () =
  let eng = Fp_sets.create backend in
  let live0 = Fp_sets.live_words eng in
  let a = Fp_sets.with_added eng (Fp_sets.empty eng) 100 in
  check bool "live grows" true (Fp_sets.live_words eng > live0);
  Fp_sets.release a;
  check bool "live shrinks on release" true
    (Fp_sets.live_words eng <= Fp_sets.peak_words eng)

(* ------------------------------------------------------------------ *)
(* Differential testing against ground-truth PSP reachability           *)
(* ------------------------------------------------------------------ *)

type frame_sim = {
  bags_frame : Sp_bags.frame;
  mutable block : Sp_order.block option;
  mutable spawned_lasts : Dag.node list;
  mutable created : Dag.future list;
}

type sim = {
  dag : Dag.t;
  spo : Sp_order.t;
  bags : Sp_bags.t;
  mutable pos_of : (Dag.node * Sp_order.pos) list;
  (* snapshot of SP-bags answers taken when each strand became current:
     (v, u, was_serial) *)
  mutable bags_obs : (Dag.node * Dag.node * bool) list;
  mutable executed : (Dag.node * Sp_bags.frame) list; (* most recent first *)
}

let observe sim v frame =
  List.iter
    (fun (u, uframe) ->
      sim.bags_obs <-
        (v, u, Sp_bags.is_serial_with_current sim.bags uframe) :: sim.bags_obs)
    sim.executed;
  sim.executed <- (v, frame) :: sim.executed

let register sim v pos = sim.pos_of <- (v, pos) :: sim.pos_of

(* Serial interpreter of a random structured program driving all three
   structures. Returns the frame's final (node, pos). *)
let run_random_program seed ~max_ops ~max_depth =
  let rng = Prng.create seed in
  let dag, root = Dag.create () in
  let spo, root_pos = Sp_order.create () in
  let bags, root_frame = Sp_bags.create () in
  let sim = { dag; spo; bags; pos_of = []; bags_obs = []; executed = [] } in
  register sim root root_pos;
  observe sim root root_frame;
  let budget = ref max_ops in
  let rec run_frame ~first ~first_pos frame depth =
    let cur = ref first and pos = ref first_pos in
    let handles = ref [] in
    let steps = 2 + Prng.int rng 8 in
    for _ = 0 to steps do
      if !budget > 0 then begin
        decr budget;
        match Prng.int rng 8 with
        | 0 | 1 when depth < max_depth ->
            let child, cont = Dag.spawn sim.dag ~cur:!cur in
            let cpos, tpos, block =
              Sp_order.spawn sim.spo ~cur:!pos ~block:frame.block
            in
            frame.block <- Some block;
            register sim child cpos;
            register sim cont tpos;
            let child_frame =
              {
                bags_frame = Sp_bags.spawn_child sim.bags;
                block = None;
                spawned_lasts = [];
                created = [];
              }
            in
            observe sim child child_frame.bags_frame;
            let child_last, _ = run_frame ~first:child ~first_pos:cpos child_frame (depth + 1) in
            Sp_bags.child_returned sim.bags ~parent:frame.bags_frame
              ~child:child_frame.bags_frame;
            frame.spawned_lasts <- child_last :: frame.spawned_lasts;
            cur := cont;
            pos := tpos;
            observe sim cont frame.bags_frame
        | 2 | 3 when depth < max_depth ->
            let child, cont, fid = Dag.create_future sim.dag ~cur:!cur in
            let cpos, tpos, block =
              Sp_order.spawn sim.spo ~cur:!pos ~block:frame.block
            in
            frame.block <- Some block;
            register sim child cpos;
            register sim cont tpos;
            let child_frame =
              {
                bags_frame = Sp_bags.spawn_child sim.bags;
                block = None;
                spawned_lasts = [];
                created = [];
              }
            in
            observe sim child child_frame.bags_frame;
            let child_last, _ = run_frame ~first:child ~first_pos:cpos child_frame (depth + 1) in
            Dag.put sim.dag ~cur:child_last;
            Sp_bags.child_returned sim.bags ~parent:frame.bags_frame
              ~child:child_frame.bags_frame;
            frame.created <- fid :: frame.created;
            handles := fid :: !handles;
            cur := cont;
            pos := tpos;
            observe sim cont frame.bags_frame
        | 4 when frame.spawned_lasts <> [] || frame.created <> [] ->
            let s =
              Dag.sync sim.dag ~cur:!cur ~spawned_lasts:frame.spawned_lasts
                ~created:frame.created
            in
            let spos = Sp_order.sync sim.spo ~cur:!pos ~block:frame.block in
            Sp_bags.sync sim.bags frame.bags_frame;
            frame.spawned_lasts <- [];
            frame.created <- [];
            frame.block <- None;
            register sim s spos;
            cur := s;
            pos := spos;
            observe sim s frame.bags_frame
        | 5 | 6 when !handles <> [] ->
            let i = Prng.int rng (List.length !handles) in
            let h = List.nth !handles i in
            handles := List.filteri (fun j _ -> j <> i) !handles;
            let g = Dag.get sim.dag ~cur:!cur ~future:h in
            let gpos = Sp_order.step sim.spo ~cur:!pos in
            register sim g gpos;
            cur := g;
            pos := gpos;
            observe sim g frame.bags_frame
        | _ -> ()
      end
    done;
    (* frame-end implicit sync *)
    if frame.spawned_lasts <> [] || frame.created <> [] then begin
      let s =
        Dag.sync sim.dag ~cur:!cur ~spawned_lasts:frame.spawned_lasts
          ~created:frame.created
      in
      let spos = Sp_order.sync sim.spo ~cur:!pos ~block:frame.block in
      Sp_bags.sync sim.bags frame.bags_frame;
      frame.spawned_lasts <- [];
      frame.created <- [];
      frame.block <- None;
      register sim s spos;
      cur := s;
      pos := spos;
      observe sim s frame.bags_frame
    end;
    (!cur, !pos)
  in
  let root_frame_sim =
    { bags_frame = root_frame; block = None; spawned_lasts = []; created = [] }
  in
  let final, _ = run_frame ~first:root ~first_pos:root_pos root_frame_sim 0 in
  Dag.put sim.dag ~cur:final;
  sim

let prop_sporder_matches_psp =
  QCheck2.Test.make ~name:"sp_order precedes = ground-truth PSP reachability"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
      let oracle = Dag_algo.build_oracle sim.dag Dag_algo.Psp in
      List.for_all
        (fun (u, upos) ->
          List.for_all
            (fun (v, vpos) ->
              Sp_order.precedes sim.spo upos vpos = Dag_algo.precedes oracle u v)
            sim.pos_of)
        sim.pos_of)

let prop_spbags_matches_psp =
  QCheck2.Test.make ~name:"sp_bags answers = ground-truth PSP reachability"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
      let oracle = Dag_algo.build_oracle sim.dag Dag_algo.Psp in
      List.for_all
        (fun (v, u, was_serial) -> was_serial = Dag_algo.precedes oracle u v)
        sim.bags_obs)

(* The differential properties are only meaningful if the generator
   produces real structure; pin that down. *)
let test_generator_nontrivial () =
  let nodes = ref 0 and futures = ref 0 and gets = ref 0 and biggest = ref 0 in
  for seed = 0 to 49 do
    let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
    let n = Dag.n_nodes sim.dag in
    nodes := !nodes + n;
    futures := !futures + Dag.n_futures sim.dag - 1;
    biggest := max !biggest n;
    for f = 1 to Dag.n_futures sim.dag - 1 do
      if Dag.get_node_of sim.dag f <> None then incr gets
    done
  done;
  check bool "enough nodes overall" true (!nodes > 1_500);
  check bool "enough futures overall" true (!futures > 100);
  check bool "some gets happen" true (!gets > 30);
  check bool "some big programs" true (!biggest >= 40)

(* ------------------------------------------------------------------ *)
(* Future tree: cp(G) as nested order-maintenance spans                 *)
(* ------------------------------------------------------------------ *)

type fnode = { span : Future_tree.span; parent : fnode option }

(* the definition: cp(G) = cp(parent) ∪ {parent} *)
let rec naive_ancestor f g =
  match g.parent with None -> false | Some p -> p == f || naive_ancestor f p

(* Random creation trees of 2000-3000 futures. [chain] biases the parent
   toward the newest future, so trees range from bushy (depth O(lg n),
   many creates under one parent, which relabels around its [b]) to
   near-chains (depth O(n)). Checks every (ancestor, node) pair on each
   node's chain, plus random pairs. *)
let prop_future_tree_matches_walk =
  QCheck2.Test.make ~name:"future tree ancestry = parent-chain walk" ~count:12
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 100))
    (fun (seed, chain) ->
      let rng = Prng.create seed in
      let n = 2000 + Prng.int rng 1001 in
      let tree, root_span = Future_tree.create () in
      let nodes = Array.make n { span = root_span; parent = None } in
      for i = 1 to n - 1 do
        let p = if Prng.int rng 100 < chain then nodes.(i - 1) else nodes.(Prng.int rng i) in
        nodes.(i) <- { span = Future_tree.create_child tree p.span; parent = Some p }
      done;
      let agrees f g =
        Future_tree.is_ancestor tree f.span g.span = naive_ancestor f g
      in
      let fids = Array.for_all Fun.id (Array.mapi (fun i x -> x.span.Future_tree.fid = i) nodes) in
      let rec chain_ok g = function
        | None -> true
        | Some p -> Future_tree.is_ancestor tree p.span g.span && chain_ok g p.parent
      in
      fids
      && Array.for_all (fun g -> chain_ok g g.parent && agrees g g) nodes
      && List.for_all
           (fun _ -> agrees nodes.(Prng.int rng n) nodes.(Prng.int rng n))
           (List.init 20_000 Fun.id))

(* Two domains create futures while a third queries published ones.
   Creates pile up under a handful of hot parents, so the list relabels
   around their [b] items throughout; a query racing a relabel must retry
   through the seqlock, never misorder. *)
let test_future_tree_concurrent () =
  let tree, root_span = Future_tree.create () in
  let root = { span = root_span; parent = None } in
  let per = 3000 in
  let made = Array.init 2 (fun _ -> Array.make per root) in
  let published = Array.init 2 (fun _ -> Atomic.make 0) in
  let querying = Atomic.make false and creators_done = Atomic.make 0 in
  let relabels = Metrics.counter "om.relabels" in
  let relabels_before = Metrics.value relabels in
  let creator d () =
    let rng = Prng.create (17 + d) in
    let mine = made.(d) in
    while not (Atomic.get querying) do
      Domain.cpu_relax ()
    done;
    for i = 0 to per - 1 do
      let p =
        if i < 4 || Prng.int rng 4 = 0 then root
        else mine.(Prng.int rng (min i 4))
      in
      mine.(i) <- { span = Future_tree.create_child tree p.span; parent = Some p };
      Atomic.set published.(d) (i + 1)
    done;
    Atomic.incr creators_done
  in
  let querier () =
    let rng = Prng.create 99 in
    let pick () =
      let d = Prng.int rng 2 in
      let k = Atomic.get published.(d) in
      if k = 0 then root else made.(d).(Prng.int rng k)
    in
    let wrong = ref 0 and asked = ref 0 in
    let ask () =
      let f = pick () and g = pick () in
      incr asked;
      if Future_tree.is_ancestor tree f.span g.span <> naive_ancestor f g then incr wrong
    in
    Atomic.set querying true;
    while Atomic.get creators_done < 2 do
      ask ()
    done;
    for _ = 1 to 1000 do
      ask ()
    done;
    (!asked, !wrong)
  in
  let q = Domain.spawn querier in
  let cs = List.init 2 (fun d -> Domain.spawn (creator d)) in
  List.iter Domain.join cs;
  let asked, wrong = Domain.join q in
  check int "no wrong answer" 0 wrong;
  check bool "queries ran" true (asked > 1000);
  check bool "the list relabeled while queried" true
    (Metrics.value relabels > relabels_before);
  let fids =
    List.sort compare
      (List.concat_map
         (fun a -> Array.to_list (Array.map (fun x -> x.span.Future_tree.fid) a))
         (Array.to_list made))
  in
  check (Alcotest.list int) "fids dense and unique" (List.init (2 * per) (fun i -> i + 1)) fids

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sporder_matches_psp; prop_spbags_matches_psp ]

let fpsets_cases backend tag =
  [
    Alcotest.test_case (tag ^ ": basic") `Quick (test_fpsets_basic backend);
    Alcotest.test_case (tag ^ ": share forces copy") `Quick
      (test_fpsets_share_forces_copy backend);
    Alcotest.test_case (tag ^ ": immutable additions") `Quick
      (test_fpsets_immutable_add backend);
    Alcotest.test_case (tag ^ ": merge subsumes") `Quick
      (test_fpsets_merge_subsume backend);
    Alcotest.test_case (tag ^ ": merge allocates") `Quick
      (test_fpsets_merge_allocates backend);
    Alcotest.test_case (tag ^ ": merge duplicates") `Quick
      (test_fpsets_merge_duplicates backend);
    Alcotest.test_case (tag ^ ": merge_add") `Quick (test_fpsets_merge_add backend);
    Alcotest.test_case (tag ^ ": live words") `Quick
      (test_fpsets_live_words backend);
  ]

let () =
  if Sys.getenv_opt "SFR_SIZES" <> None then begin
    let nodes = ref 0 and futures = ref 0 and gets = ref 0 and biggest = ref 0 in
    for seed = 0 to 49 do
      let sim = run_random_program seed ~max_ops:100 ~max_depth:5 in
      let n = Dag.n_nodes sim.dag in
      nodes := !nodes + n;
      futures := !futures + Dag.n_futures sim.dag - 1;
      biggest := max !biggest n;
      for f = 1 to Dag.n_futures sim.dag - 1 do
        if Dag.get_node_of sim.dag f <> None then incr gets
      done
    done;
    Printf.printf "nodes=%d futures=%d gets=%d biggest=%d\n" !nodes !futures !gets !biggest;
    exit 0
  end

let () =
  Alcotest.run "reach"
    [
      ( "sp_order",
        [
          Alcotest.test_case "spawn relations" `Quick test_sporder_spawn_relations;
          Alcotest.test_case "sync joins" `Quick test_sporder_sync_joins;
          Alcotest.test_case "two spawns one block" `Quick
            test_sporder_two_spawns_one_block;
          Alcotest.test_case "sync without block" `Quick
            test_sporder_sync_without_block;
          Alcotest.test_case "step serial" `Quick test_sporder_step_serial;
        ] );
      ( "sp_bags",
        [
          Alcotest.test_case "spawn/sync" `Quick test_spbags_spawn_sync;
          Alcotest.test_case "nested" `Quick test_spbags_nested;
        ] );
      ( "future tree",
        [
          QCheck_alcotest.to_alcotest prop_future_tree_matches_walk;
          Alcotest.test_case "concurrent creates vs queries" `Quick
            test_future_tree_concurrent;
        ] );
      ( "fp_sets",
        fpsets_cases Fp_sets.Bitmap "bitmap" @ fpsets_cases Fp_sets.Hashed "hashed" );
      ( "differential",
        Alcotest.test_case "generator is nontrivial" `Quick test_generator_nontrivial
        :: qtests );
    ]

