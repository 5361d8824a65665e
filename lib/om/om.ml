(* Two-level order-maintenance list.

   Layout: one circular doubly-linked list of items threaded through all
   groups; a circular doubly-linked list of groups. The base item/group are
   permanent minima (insertion is only ever *after* an existing item).

   Labels: group labels live in [0, 2^group_bits); item labels live in
   [0, 2^item_bits) within their group. An item x precedes y iff
   (x.grp.glabel, x.label) < (y.grp.glabel, y.label).

   Rebalancing:
   - a full group (>= group_capacity items) is split in two;
   - a group with no item-label gap at the insertion point is relabeled
     evenly (O(group_capacity) = O(1) amortized);
   - group labels use the Bender et al. density-threshold relabeling over
     dyadic label ranges, giving amortized O(lg n) per group insertion,
     i.e. amortized O(1) per item insertion since groups hold Theta(lg n)
     items in spirit (we use a fixed capacity, which keeps the practical
     bound and is what race-detector implementations do).

   Concurrency: t.lock serializes mutations (taken by [lock], which spins
   before it blocks). Queries read labels without the lock and validate
   against a seqlock version that relabeling bumps (odd while labels are
   in flux). *)

type group = {
  mutable glabel : int;
  mutable count : int;
  mutable gprev : group;
  mutable gnext : group;
  mutable first : item;
}

and item = {
  mutable label : int;
  mutable grp : group;
  mutable prev : item;
  mutable next : item;
}

type t = {
  mutable base_group : group;
  base_item : item;
  mutable nitems : int;
  mutable ngroups : int;
  lock : Mutex.t;
  version : int Atomic.t;
}

(* Observability: relabel storms are the OM cost the paper's analysis
   amortizes away; the counters let the ablations see them. *)
module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof
module Chaos = Sfr_chaos.Chaos

let m_relabels = Metrics.counter "om.relabels"
let m_splits = Metrics.counter "om.splits"
let m_relabel_span = Metrics.counter ~kind:`Max "om.relabel.max_span"

(* The relabel window is also the interval concurrent seqlock readers
   must retry through, so its latency distribution bounds query-side
   interference, not just insertion cost. *)
let t_relabel = Prof.timer "prof.om.relabel.ns"

let group_bits = 60
let group_label_limit = 1 lsl group_bits
let item_bits = 30
let item_label_limit = 1 lsl item_bits
let group_capacity = 48
let initial_item_gap = item_label_limit / (group_capacity + 2)

let create () =
  let rec base_item =
    { label = 0; grp = base_group; prev = base_item; next = base_item }
  and base_group =
    { glabel = 0; count = 1; gprev = base_group; gnext = base_group; first = base_item }
  in
  let t =
    {
      base_group;
      base_item;
      nitems = 1;
      ngroups = 1;
      lock = Mutex.create ();
      version = Atomic.make 0;
    }
  in
  (t, base_item)

(* -- seqlock helpers -------------------------------------------------- *)

(* Chaos delays inside the odd-version window (perturb-only site: the
   mutation lock is held here) stretch exactly the interval concurrent
   [compare_items] seqlock readers must detect and retry through. *)
let begin_relabel t =
  Atomic.incr t.version;
  Chaos.point Chaos.Relabel;
  Prof.start ()

let end_relabel t t0 =
  Atomic.incr t.version;
  Prof.stop t_relabel t0

(* -- group-level relabeling ------------------------------------------ *)

(* Walk the whole top list and spread group labels evenly over the label
   universe. O(ngroups); triggered only when a dyadic range relabel cannot
   find room (pathological) or the tail runs out of space. *)
let relabel_all_groups t =
  Metrics.incr m_relabels;
  Metrics.add m_relabel_span t.ngroups;
  let t0 = begin_relabel t in
  let gap = max 1 (group_label_limit / (t.ngroups + 1)) in
  let rec loop g label =
    g.glabel <- label;
    if g.gnext != t.base_group then loop g.gnext (label + gap)
  in
  loop t.base_group 0;
  end_relabel t t0

(* Bender-style: find the smallest enclosing dyadic label range around
   [g.glabel] whose population is under the density threshold, then spread
   that population evenly over the range. Threshold for a range of size
   2^i is (2/T)^i with T = 1.5. *)
let rebalance_groups_around t g =
  let threshold = ref 1.0 in
  let rec try_level i =
    if i > group_bits then relabel_all_groups t
    else begin
      let size = 1 lsl i in
      let lo = g.glabel land lnot (size - 1) in
      let hi = lo + size in
      (* collect the contiguous run of groups whose labels are in [lo,hi) *)
      let leftmost = ref g in
      while !leftmost != t.base_group && (!leftmost).gprev.glabel >= lo
            && (!leftmost).gprev != t.base_group do
        leftmost := (!leftmost).gprev
      done;
      if !leftmost == t.base_group || ((!leftmost).gprev == t.base_group
                                       && t.base_group.glabel >= lo)
      then leftmost := t.base_group;
      (* count members of the range *)
      let count = ref 0 in
      let cursor = ref !leftmost in
      let continue = ref true in
      while !continue do
        incr count;
        let next = (!cursor).gnext in
        if next == t.base_group || next.glabel >= hi then continue := false
        else cursor := next
      done;
      threshold := !threshold *. (2.0 /. 1.5);
      (* need even spreading to leave >= 2 of label room between neighbors,
         so a midpoint insertion after the retry is guaranteed to fit *)
      if float_of_int !count < !threshold && 2 * (!count + 1) <= size then begin
        Metrics.incr m_relabels;
        Metrics.add m_relabel_span !count;
        let t0 = begin_relabel t in
        let gap = size / (!count + 1) in
        let c = ref !leftmost in
        for j = 1 to !count do
          (!c).glabel <- lo + (j * gap);
          c := (!c).gnext
        done;
        end_relabel t t0
      end
      else try_level (i + 1)
    end
  in
  try_level 1

(* Insert a fresh empty group after [g] and return it; ensures a distinct
   label strictly between neighbors. *)
let rec insert_group_after t g =
  let next = g.gnext in
  let at_end = next == t.base_group in
  let label_ok =
    if at_end then g.glabel + 2 < group_label_limit else next.glabel - g.glabel >= 2
  in
  if not label_ok then begin
    if at_end then relabel_all_groups t else rebalance_groups_around t g;
    insert_group_after t g
  end
  else begin
    let label =
      if at_end then
        let room = group_label_limit - g.glabel in
        g.glabel + min (room / 2) (1 lsl 32)
      else g.glabel + ((next.glabel - g.glabel) / 2)
    in
    let rec ng =
      { glabel = label; count = 0; gprev = g; gnext = next; first = dummy }
    and dummy = { label = 0; grp = ng; prev = dummy; next = dummy } in
    g.gnext <- ng;
    next.gprev <- ng;
    t.ngroups <- t.ngroups + 1;
    ng
  end

(* -- item-level operations -------------------------------------------- *)

(* Spread the labels of [g]'s items evenly across the item label space. *)
let relabel_group t (g : group) =
  Metrics.incr m_relabels;
  let t0 = begin_relabel t in
  let gap = max 1 (item_label_limit / (g.count + 1)) in
  let rec loop (x : item) j =
    x.label <- j * gap;
    if x.next.grp == g && x.next != g.first then loop x.next (j + 1)
  in
  loop g.first 1;
  end_relabel t t0

(* Move the second half of [g] into a fresh group placed right after it. *)
let split_group t (g : group) =
  Metrics.incr m_splits;
  let ng = insert_group_after t g in
  let half = g.count / 2 in
  (* find the first item of the second half *)
  let rec advance (x : item) n = if n = 0 then x else advance x.next (n - 1) in
  let mover = advance g.first half in
  let t0 = begin_relabel t in
  ng.first <- mover;
  let rec claim (x : item) n =
    if n > 0 then begin
      x.grp <- ng;
      claim x.next (n - 1)
    end
  in
  claim mover (g.count - half);
  ng.count <- g.count - half;
  g.count <- half;
  end_relabel t t0;
  relabel_group t g;
  relabel_group t ng

(* Inserts hold the lock for well under a microsecond, and on 2 domains
   the spawning strands of both contend for it on every spawn, create,
   sync and get. A [Mutex.lock] that finds it taken enters a blocking
   section and parks in the kernel. Spinning on [try_lock] first, with
   [cpu_relax] (which also answers stop-the-world requests), waits out
   the holder instead, and blocks only if the holder was descheduled. *)
let lock t =
  let rec spin n =
    if n = 0 then Mutex.lock t.lock
    else if not (Mutex.try_lock t.lock) then begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
  in
  spin 200

let rec insert_after t (x : item) =
  lock t;
  let result = insert_after_locked t x in
  Mutex.unlock t.lock;
  result

and insert_pair_after t (x : item) =
  lock t;
  let y = insert_after_locked t x in
  let z = insert_after_locked t y in
  Mutex.unlock t.lock;
  (y, z)

and insert_after_locked t (x : item) =
  let g = x.grp in
  if g.count >= group_capacity then begin
    split_group t g;
    insert_after_locked t x
  end
  else begin
    let next = x.next in
    let x_is_last = next.grp != g || next == g.first in
    let upper = if x_is_last then item_label_limit else next.label in
    if upper - x.label < 2 then begin
      relabel_group t g;
      insert_after_locked t x
    end
    else begin
      let label =
        if x_is_last then x.label + min ((item_label_limit - x.label) / 2) initial_item_gap
        else x.label + ((upper - x.label) / 2)
      in
      let fresh = { label; grp = g; prev = x; next } in
      x.next <- fresh;
      next.prev <- fresh;
      g.count <- g.count + 1;
      t.nitems <- t.nitems + 1;
      fresh
    end
  end

(* -- queries ----------------------------------------------------------- *)

let rec compare_items t x y =
  let v0 = Atomic.get t.version in
  if v0 land 1 = 1 then begin
    Domain.cpu_relax ();
    compare_items t x y
  end
  else begin
    let gx = x.grp and gy = y.grp in
    let c =
      if gx == gy then Int.compare x.label y.label
      else Int.compare gx.glabel gy.glabel
    in
    if Atomic.get t.version = v0 then c
    else begin
      Domain.cpu_relax ();
      compare_items t x y
    end
  end

let precedes t x y = compare_items t x y < 0

let size t = t.nitems

let words t = (6 * t.nitems) + (7 * t.ngroups) + 8

(* -- test hooks --------------------------------------------------------- *)

let to_list t =
  let rec walk (x : item) acc =
    let acc = x :: acc in
    if x.next == t.base_item then List.rev acc else walk x.next acc
  in
  walk t.base_item []

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* group labels strictly ascending *)
  let rec walk_groups (g : group) seen =
    if g.gnext != t.base_group then begin
      if g.gnext.glabel <= g.glabel then
        fail "group labels not ascending: %d then %d" g.glabel g.gnext.glabel;
      walk_groups g.gnext (seen + 1)
    end
    else seen + 1
  in
  let ngroups = walk_groups t.base_group 0 in
  if ngroups <> t.ngroups then fail "ngroups mismatch: %d vs %d" ngroups t.ngroups;
  (* items: ascending (glabel, label), group membership contiguous *)
  let items = to_list t in
  if List.length items <> t.nitems then fail "nitems mismatch";
  let rec check_pairs = function
    | a :: (b :: _ as rest) ->
        let ka = (a.grp.glabel, a.label) and kb = (b.grp.glabel, b.label) in
        if compare ka kb >= 0 then
          fail "items not ascending: (%d,%d) then (%d,%d)" (fst ka) (snd ka)
            (fst kb) (snd kb);
        check_pairs rest
    | [ _ ] | [] -> ()
  in
  check_pairs items;
  (* per-group counts *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let c = try Hashtbl.find tbl x.grp with Not_found -> 0 in
      Hashtbl.replace tbl x.grp (c + 1))
    items;
  Hashtbl.iter
    (fun (g : group) c -> if g.count <> c then fail "group count mismatch: %d vs %d" g.count c)
    tbl
