module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof
module Chaos = Sfr_chaos.Chaos

(* Observability: the paper's conclusion flags access-history
   synchronization as the dominant full-detection cost. [history.cas.retry]
   counts publications that lost a race and re-read the cell;
   [history.write.fastpath] counts writes by the installed writer that
   swapped nothing; [history.readers.insert] counts reader slots stored
   by reads, and [history.readers.evict] slots a read replaced (under
   [Lr_per_future]) or a write dropped. The prof timers cover a whole access
   (lookup, swap, race checks). *)
let m_cas_retry = Metrics.counter "history.cas.retry"
let m_readers_insert = Metrics.counter "history.readers.insert"
let m_readers_evict = Metrics.counter "history.readers.evict"
let m_write_fast = Metrics.counter "history.write.fastpath"
let t_read = Prof.timer "prof.history.read.ns"
let t_write = Prof.timer "prof.history.write.ns"

type 'a policy =
  | Keep_all
  | Lr_per_future of {
      future_of : 'a -> int;
      more_left : 'a -> 'a -> bool;
      more_right : 'a -> 'a -> bool;
      covers : 'a -> 'a -> bool;
    }

type sync_mode = [ `Cas | `Unsynchronized ]

module Int_map = Map.Make (Int)

(* One location's state. Records are immutable and freshly allocated for
   every change, so a cell's compare-and-set on physical equality cannot
   suffer ABA. [n] is the reader count: list length under [All], two per
   stored future under [Lr]. *)
type 'a record =
  | All of { writer : 'a option; readers : 'a list; n : int }
      (** [Keep_all]: every reader since the last write, newest first *)
  | Lr of { writer : 'a option; pairs : ('a * 'a) Int_map.t; n : int }
      (** [Lr_per_future]: future id -> (leftmost, rightmost) reader *)

let writer_of = function All r -> r.writer | Lr r -> r.writer
let nreaders = function All r -> r.n | Lr r -> r.n

(* The directory: pages of [page_size] cells, page [p] covering locations
   [p * page_size ..]. A dense spine covers a window of page numbers:
   [pages.(i)] holds page [base + i], or [[||]] until some access
   installs it. A page outside the window goes to the [sparse] map
   instead when covering it would stretch the window past [spine_slack]
   slots per installed page, so two far-apart locations cost two pages,
   not the span between them. A grown spine reuses the old spine's
   slots and adopts the sparse pages it now covers, so a page installed
   through a stale spine is visible through the new one, and cells never
   move. *)
let page_bits = 9
let page_size = 1 lsl page_bits

(* A spine slot costs three words, a page [1 + 3 * page_size]: at 64
   slots per installed page the spine stays within an eighth of the
   pages' words. *)
let spine_slack = 64

type 'a page = 'a record Atomic.t array
type 'a spine = { base : int; pages : 'a page Atomic.t array }

type 'a t = {
  policy : 'a policy;
  sync : bool;
  empty : 'a record; (* every cell's initial record; never re-installed *)
  spine : 'a spine Atomic.t;
  sparse : 'a page Int_map.t Atomic.t; (* replaced only under [grow_mu] *)
  npages : int Atomic.t; (* pages installed, in the spine or sparse *)
  grow_mu : Mutex.t;
  max_readers : int Atomic.t;
}

let create ?(sync = `Cas) policy =
  let empty =
    match policy with
    | Keep_all -> All { writer = None; readers = []; n = 0 }
    | Lr_per_future _ -> Lr { writer = None; pairs = Int_map.empty; n = 0 }
  in
  {
    policy;
    sync = sync = `Cas;
    empty;
    spine = Atomic.make { base = 0; pages = [||] };
    sparse = Atomic.make Int_map.empty;
    npages = Atomic.make 0;
    grow_mu = Mutex.create ();
    max_readers = Atomic.make 0;
  }

(* Publish [next] over [prev]. [`Unsynchronized] is the serial lower
   bound: the same records, stored without a compare. *)
let publish t cell prev next =
  if t.sync then Atomic.compare_and_set cell prev next
  else begin
    Atomic.set cell next;
    true
  end

(* [Array.init] of more than 256 words allocates in the major heap, and
   when its first element is young, [caml_make_vect] first runs a minor
   collection, which stops the world while another domain runs: one per
   page, and one per spine growth past 256 slots. [Array.concat] of
   young chunks initializes its major-heap copy element by element and
   forces nothing. *)
let init_unforced n f =
  let chunk = 256 in
  if n <= chunk then Array.init n f
  else
    Array.concat
      (List.init
         ((n + chunk - 1) / chunk)
         (fun c ->
           let lo = c * chunk in
           Array.init (min chunk (n - lo)) (fun i -> f (lo + i))))

let new_page t = init_unforced page_size (fun _ -> Atomic.make t.empty)

(* Make page [p] reachable. Inside the slack bound the spine extends
   over [p], at least doubling, so a monotone sweep costs O(log pages)
   copies; past it [p] gets a sparse page. The new spine is published
   before the sparse pages it adopts are dropped, so a lookup that misses
   both ends here, under the mutex, and finds [p] covered. *)
let grow t p =
  Mutex.protect t.grow_mu (fun () ->
      let s = Atomic.get t.spine and sparse = Atomic.get t.sparse in
      let len = Array.length s.pages in
      if (p >= s.base && p < s.base + len) || Int_map.mem p sparse then ()
      else if len = 0 then Atomic.set t.spine { base = p; pages = [| Atomic.make [||] |] }
      else begin
        let lo = min p s.base and hi = max (p + 1) (s.base + len) in
        let cap = spine_slack * (Atomic.get t.npages + 1) in
        if hi - lo > cap then begin
          Atomic.set t.sparse (Int_map.add p (new_page t) sparse);
          Atomic.incr t.npages
        end
        else begin
          let n = max (hi - lo) (min (2 * len) cap) in
          let base = if p < s.base then hi - n else lo in
          let pages =
            init_unforced n (fun i ->
                let j = base + i - s.base in
                if j >= 0 && j < len then s.pages.(j)
                else
                  Atomic.make
                    (match Int_map.find_opt (base + i) sparse with
                    | Some page -> page
                    | None -> [||]))
          in
          Atomic.set t.spine { base; pages };
          Atomic.set t.sparse (Int_map.filter (fun q _ -> q < base || q >= base + n) sparse)
        end
      end)

let rec cell t loc =
  let p = loc asr page_bits in
  let s = Atomic.get t.spine in
  let i = p - s.base in
  if i >= 0 && i < Array.length s.pages then begin
    let slot = s.pages.(i) in
    let page = Atomic.get slot in
    let page =
      if Array.length page > 0 then page
      else begin
        let fresh = new_page t in
        if publish t slot page fresh then begin
          Atomic.incr t.npages;
          fresh
        end
        else Atomic.get slot
      end
    in
    page.(loc land (page_size - 1))
  end
  else
    match Int_map.find_opt p (Atomic.get t.sparse) with
    | Some page -> page.(loc land (page_size - 1))
    | None ->
        grow t p;
        cell t loc

let note_high_water t n =
  let rec loop () =
    let m = Atomic.get t.max_readers in
    if n > m && not (Atomic.compare_and_set t.max_readers m n) then loop ()
  in
  loop ()

(* What a read by [a] does to record [r]: [Same] when the record it
   leaves behind would equal [r] (a repeat read by the head reader, or an
   [Lr] read that moves neither extreme), else the new record and the
   number of stored reader slots it replaces. *)
type 'a step = Same | Next of 'a record * int

let after_read t r a =
  match (r, t.policy) with
  | All { readers = x :: _; _ }, _ when x == a -> Same
  | All { writer; readers; n }, _ -> Next (All { writer; readers = a :: readers; n = n + 1 }, 0)
  | Lr { writer; pairs; n }, Lr_per_future { future_of; more_left; more_right; covers } -> (
      let f = future_of a in
      match Int_map.find_opt f pairs with
      | None -> Next (Lr { writer; pairs = Int_map.add f (a, a) pairs; n = n + 2 }, 0)
      | Some (l, r) ->
          (* a reader both stored readers precede supersedes them
             (Mellor-Crummey's replacement rule); otherwise [a] may
             become the new leftmost or rightmost *)
          let l', r' =
            if covers l a && covers r a then (a, a)
            else ((if more_left a l then a else l), if more_right a r then a else r)
          in
          let replaced = (if l' == l then 0 else 1) + if r' == r then 0 else 1 in
          if replaced = 0 then Same
          else Next (Lr { writer; pairs = Int_map.add f (l', r') pairs; n }, replaced))
  | Lr _, Keep_all -> assert false

(* Swap in the record a read by [a] leaves behind; returns the record it
   displaced (or read, when the read changes nothing). *)
let rec read_swap t c a =
  let r = Atomic.get c in
  match after_read t r a with
  | Same -> r
  | Next (r', replaced) ->
      (* perturb-only site: widens the window between reading the
         record and publishing its successor *)
      Chaos.point Chaos.Lock_acquire;
      if publish t c r r' then begin
        if replaced > 0 then Metrics.add m_readers_evict replaced;
        Metrics.add m_readers_insert (replaced + nreaders r' - nreaders r);
        note_high_water t (nreaders r');
        r
      end
      else begin
        Metrics.incr m_cas_retry;
        read_swap t c a
      end

let on_read t ~loc ~accessor ~check_writer =
  let t0 = Prof.start () in
  (match writer_of (read_swap t (cell t loc) accessor) with
  | Some w -> check_writer w
  | None -> ());
  Prof.stop t_read t0

let on_write t ~loc ~accessor ~check =
  let t0 = Prof.start () in
  let c = cell t loc in
  let r = Atomic.get c in
  (match writer_of r with
  | Some w when w == accessor && nreaders r = 0 ->
      (* the installed writer again, no reader since: the swap would
         change nothing. The writer-vs-writer check still runs, as the
         serial update would run it. *)
      Metrics.incr m_write_fast;
      check ~prev:accessor ~prev_is_writer:true
  | _ ->
      let fresh =
        match r with
        | All _ -> All { writer = Some accessor; readers = []; n = 0 }
        | Lr _ -> Lr { writer = Some accessor; pairs = Int_map.empty; n = 0 }
      in
      Chaos.point Chaos.Lock_acquire;
      (* the new record does not depend on the old one, so one exchange
         publishes it and returns exactly the record it displaced *)
      let old =
        if t.sync then Atomic.exchange c fresh
        else begin
          Atomic.set c fresh;
          r
        end
      in
      (match writer_of old with Some w -> check ~prev:w ~prev_is_writer:true | None -> ());
      (match old with
      | All { readers; _ } -> List.iter (fun x -> check ~prev:x ~prev_is_writer:false) readers
      | Lr { pairs; _ } ->
          Int_map.iter
            (fun _ (l, r) ->
              check ~prev:l ~prev_is_writer:false;
              if r != l then check ~prev:r ~prev_is_writer:false)
            pairs);
      Metrics.add m_readers_evict (nreaders old));
  Prof.stop t_write t0

(* -- statistics (quiescent reads) --------------------------------------- *)

let fold_records t f init =
  let page acc pg =
    Array.fold_left
      (fun acc c ->
        let r = Atomic.get c in
        if r == t.empty then acc else f acc r)
      acc pg
  in
  let acc =
    Array.fold_left (fun acc slot -> page acc (Atomic.get slot)) init (Atomic.get t.spine).pages
  in
  Int_map.fold (fun _ pg acc -> page acc pg) (Atomic.get t.sparse) acc

let locations_tracked t = fold_records t (fun acc _ -> acc + 1) 0
let readers_stored t = fold_records t (fun acc r -> acc + nreaders r) 0
let max_readers_at_once t = Atomic.get t.max_readers

(* Heap words: the spine (array plus one atomic box per slot), the
   sparse map's nodes, each installed page (array plus one box per cell),
   and per touched location its record, writer option and reader list or
   (future, pair) map nodes. *)
let words t =
  let s = Atomic.get t.spine in
  fold_records t
    (fun acc r ->
      acc + 4
      + (match writer_of r with None -> 0 | Some _ -> 2)
      + match r with All { n; _ } -> 3 * n | Lr { pairs; _ } -> 9 * Int_map.cardinal pairs)
    (3 + (3 * Array.length s.pages) + 1
    + (6 * Int_map.cardinal (Atomic.get t.sparse))
    + (Atomic.get t.npages * (1 + (3 * page_size))))
