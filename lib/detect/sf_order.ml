module Events = Sfr_runtime.Events
module Sp_order = Sfr_reach.Sp_order
module Fp_sets = Sfr_reach.Fp_sets
module Chunk_vec = Sfr_support.Chunk_vec
module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof

(* Same registry entry Fp_sets charges table growth to: the cp container
   itself is part of the reachability tables' footprint, O(k) words over
   k future creates. *)
let m_table_words = Metrics.counter "reach.table.alloc_words"

(* Query-case breakdown of Algorithm 1 (Lemmas 3.4-3.9): the three
   counters partition every Precedes call, so they sum to [queries ()].
   The matching prof.*.ns timers attribute wall time to the same cases
   (one atomic load per query while profiling is off). *)
let m_q_same = Metrics.counter "reach.query.same_future"
let m_q_cp = Metrics.counter "reach.query.cp"
let m_q_gp = Metrics.counter "reach.query.gp"
let t_q_same = Prof.timer "prof.reach.query.same_future.ns"
let t_q_cp = Prof.timer "prof.reach.query.cp.ns"
let t_q_gp = Prof.timer "prof.reach.query.gp.ns"

(* Per-strand detector state — the paper's "node". The [gp] table is the
   strand's reference-counted future set; the [block] is its frame's
   current sync-block placeholder in the pseudo-SP-dag orders. *)
type strand = {
  pos : Sp_order.pos;
  block : Sp_order.block option;
  fid : int;
  gp : Fp_sets.table;
}

type Events.state += Sf of strand

let as_sf = function
  | Sf s -> s
  | _ -> Detect_error.foreign_state ~detector:"Sf_order" ~context:"state unwrap"

(* cp(G) per future, indexed by future ID, in a chunked vector: queries
   read immutable-once-installed entries without a lock; a create claims
   a slot under a short lock and installs a new 512-slot chunk every 512
   creates. O(1) amortized, O(k) container words total, and existing
   entries are never copied or moved. *)
let cp_append cp eng ~parent_fid =
  (* the child set doesn't depend on the new ID, so it is computed
     outside the vector's lock; push only claims the slot *)
  let parent_cp = Fp_sets.share (Chunk_vec.get cp parent_fid) in
  Chunk_vec.push cp (Fp_sets.with_added eng parent_cp parent_fid)

let make_with_precedes ?(readers = `All) ?(sets = `Bitmap) ?(history = `Cas) () =
  let spo, root_pos = Sp_order.create () in
  let eng =
    Fp_sets.create (match sets with `Bitmap -> Fp_sets.Bitmap | `Hashed -> Fp_sets.Hashed)
  in
  let cp = Chunk_vec.create ~on_alloc:(Metrics.add m_table_words) (Fp_sets.empty eng) in
  ignore (Chunk_vec.push cp (Fp_sets.empty eng));
  let races = Race.create () in
  (* Query count, striped per domain with one cache line per slot: a
     shared [Atomic.incr] here serializes every domain on one cache line
     and dominates sharded offline replay (millions of queries per
     domain). Concurrently live domain IDs are near-consecutive, so
     slots never collide mod 128 in practice and the sum stays exact. *)
  let q_stride = 8 in
  let q_slots = Array.make (128 * q_stride) 0 in
  let count_query () =
    let s = ((Domain.self () :> int) land 127) * q_stride in
    q_slots.(s) <- q_slots.(s) + 1
  in
  let query_total () = Array.fold_left ( + ) 0 q_slots in
  (* Algorithm 1: Precedes(u, v) for a previous accessor u against the
     currently executing strand v. *)
  let precedes (u : strand) (v : strand) =
    count_query ();
    let t0 = Prof.start () in
    if u == v then begin
      Metrics.incr m_q_same;
      Prof.stop t_q_same t0;
      true
    end
    else if u.fid = v.fid then begin
      Metrics.incr m_q_same;
      let r = Sp_order.precedes spo u.pos v.pos in
      Prof.stop t_q_same t0;
      r
    end
    else if Fp_sets.mem (Chunk_vec.get cp v.fid) u.fid then begin
      Metrics.incr m_q_cp;
      let r = Sp_order.precedes spo u.pos v.pos in
      Prof.stop t_q_cp t0;
      r
    end
    else begin
      Metrics.incr m_q_gp;
      let r = Fp_sets.mem v.gp u.fid in
      Prof.stop t_q_gp t0;
      r
    end
  in
  let policy =
    match readers with
    | `All -> Access_history.Keep_all
    | `Two_per_future ->
        Access_history.Lr_per_future
          {
            future_of = (fun (s : strand) -> s.fid);
            more_left = (fun a b -> Sp_order.eng_precedes spo a.pos b.pos);
            more_right = (fun a b -> Sp_order.heb_precedes spo a.pos b.pos);
            covers = (fun a b -> a == b || Sp_order.precedes spo a.pos b.pos);
          }
  in
  let history = Access_history.create ~sync:history policy in
  let metrics = Detector.metrics_since_creation () in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_sf cur in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let child =
            { pos = c_pos; block = None; fid = cur.fid; gp = Fp_sets.share cur.gp }
          in
          (* the continuation inherits the current strand's gp reference *)
          let cont = { pos = t_pos; block = Some blk; fid = cur.fid; gp = cur.gp } in
          (Sf child, Sf cont));
      on_create =
        (fun cur ->
          let cur = as_sf cur in
          (* cp(G) = cp(parent) ∪ {parent}: one O(k/w) set copy per
             future, the O(k²) construction term of Lemma 3.12 *)
          let fid = cp_append cp eng ~parent_fid:cur.fid in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let child = { pos = c_pos; block = None; fid; gp = Fp_sets.share cur.gp } in
          let cont = { pos = t_pos; block = Some blk; fid = cur.fid; gp = cur.gp } in
          (Sf child, Sf cont));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          let cur = as_sf cur in
          let pos = Sp_order.sync spo ~cur:cur.pos ~block:cur.block in
          let gp =
            Fp_sets.merge eng cur.gp (List.map (fun s -> (as_sf s).gp) spawned_lasts)
          in
          Sf { pos; block = None; fid = cur.fid; gp });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_sf cur and put = as_sf put in
          let pos = Sp_order.step spo ~cur:cur.pos in
          (* gp(g) = gp(cur) ∪ gp(last(G)) ∪ {G} (Section 3.4) *)
          let gp =
            Fp_sets.with_added eng (Fp_sets.merge eng cur.gp [ put.gp ]) put.fid
          in
          Sf { pos; block = cur.block; fid = cur.fid; gp });
      on_returned = (fun ~cont:_ ~child_last:_ -> ());
      on_read =
        (fun state loc ->
          let v = as_sf state in
          Access_history.on_read history ~loc ~accessor:v ~check_writer:(fun w ->
              if not (precedes w v) then
                Race.report races ~loc ~kind:Race.Write_read ~prev_future:w.fid
                  ~cur_future:v.fid));
      on_write =
        (fun state loc ->
          let v = as_sf state in
          Access_history.on_write history ~loc ~accessor:v
            ~check:(fun ~prev ~prev_is_writer ->
              if not (precedes prev v) then
                Race.report races ~loc
                  ~kind:(if prev_is_writer then Race.Write_write else Race.Read_write)
                  ~prev_future:prev.fid ~cur_future:v.fid));
      on_work = (fun _ _ -> ());
    }
  in
  ( {
    Detector.name = "sf-order";
    callbacks;
    root = Sf { pos = root_pos; block = None; fid = 0; gp = Fp_sets.empty eng };
    races;
    queries = query_total;
    reach_words = (fun () -> Sp_order.words spo + Fp_sets.live_words eng);
    reach_table_words = (fun () -> Fp_sets.total_words eng);
    history_words = (fun () -> Access_history.words history);
    max_readers = (fun () -> Access_history.max_readers_at_once history);
    metrics;
    supports_parallel = true;
  },
    fun u v -> precedes (as_sf u) (as_sf v) )

let make ?readers ?sets ?history () =
  fst (make_with_precedes ?readers ?sets ?history ())

let strand_future st = (as_sf st).fid
