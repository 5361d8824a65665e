module Events = Sfr_runtime.Events
module Sp_order = Sfr_reach.Sp_order
module Exit_map = Sfr_reach.Exit_map
module Metrics = Sfr_obs.Metrics
module Prof = Sfr_obs.Prof

(* F-Order has no cp/gp split: a query is either within one future or a
   scan of the accessor future's recorded NSP exits. *)
let m_q_same = Metrics.counter "reach.query.same_future"
let m_q_nsp = Metrics.counter "reach.query.nsp"
let m_q_nsp_exits = Metrics.counter "reach.query.nsp_exits_scanned"
let t_q_same = Prof.timer "prof.reach.query.same_future.ns"
let t_q_nsp = Prof.timer "prof.reach.query.nsp.ns"

type strand = {
  pos : Sp_order.pos;
  block : Sp_order.block option;
  fid : int;
  nsp : Sp_order.pos Exit_map.table;
      (* future id -> exit positions of that future reaching this strand *)
}

type Events.state += Fo of strand

let as_fo = function
  | Fo s -> s
  | _ -> Detect_error.foreign_state ~detector:"F_order" ~context:"state unwrap"

let make ?(history = `Cas) () =
  let spo, root_pos = Sp_order.create () in
  let eng : Sp_order.pos Exit_map.eng = Exit_map.create () in
  let next_fid = Atomic.make 1 in
  let races = Race.create () in
  let queries = Atomic.make 0 in
  let precedes (u : strand) (v : strand) =
    Atomic.incr queries;
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
    else begin
      Metrics.incr m_q_nsp;
      (* scan F's recorded exit points: u ≺ v iff u ⪯ some exit w of its
         future from which v is reachable *)
      let exits = Exit_map.exits v.nsp ~fid:u.fid in
      Metrics.add m_q_nsp_exits (List.length exits);
      let r =
        List.exists (fun w -> w == u.pos || Sp_order.precedes spo u.pos w) exits
      in
      Prof.stop t_q_nsp t0;
      r
    end
  in
  let history = Access_history.create ~sync:history Access_history.Keep_all in
  let metrics = Detector.metrics_since_creation () in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_fo cur in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let child =
            { pos = c_pos; block = None; fid = cur.fid; nsp = Exit_map.share cur.nsp }
          in
          let cont = { pos = t_pos; block = Some blk; fid = cur.fid; nsp = cur.nsp } in
          (Fo child, Fo cont));
      on_create =
        (fun cur ->
          let cur = as_fo cur in
          let fid = Atomic.fetch_and_add next_fid 1 in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          (* the create node is an NSP exit of the parent future that
             reaches everything in the new future *)
          let child_nsp =
            Exit_map.with_exit eng (Exit_map.share cur.nsp) ~fid:cur.fid cur.pos
          in
          let child = { pos = c_pos; block = None; fid; nsp = child_nsp } in
          let cont = { pos = t_pos; block = Some blk; fid = cur.fid; nsp = cur.nsp } in
          (Fo child, Fo cont));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          let cur = as_fo cur in
          let pos = Sp_order.sync spo ~cur:cur.pos ~block:cur.block in
          let nsp =
            Exit_map.merge eng cur.nsp (List.map (fun s -> (as_fo s).nsp) spawned_lasts)
          in
          Fo { pos; block = None; fid = cur.fid; nsp });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_fo cur and put = as_fo put in
          let pos = Sp_order.step spo ~cur:cur.pos in
          (* the gotten future's put node is an exit reaching this strand *)
          let nsp =
            Exit_map.with_exit eng
              (Exit_map.merge eng cur.nsp [ put.nsp ])
              ~fid:put.fid put.pos
          in
          Fo { pos; block = cur.block; fid = cur.fid; nsp });
      on_returned = (fun ~cont:_ ~child_last:_ -> ());
      on_read =
        (fun state loc ->
          let v = as_fo state in
          Access_history.on_read history ~loc ~accessor:v ~check_writer:(fun w ->
              if not (precedes w v) then
                Race.report races ~loc ~kind:Race.Write_read ~prev_future:w.fid
                  ~cur_future:v.fid));
      on_write =
        (fun state loc ->
          let v = as_fo state in
          Access_history.on_write history ~loc ~accessor:v
            ~check:(fun ~prev ~prev_is_writer ->
              if not (precedes prev v) then
                Race.report races ~loc
                  ~kind:(if prev_is_writer then Race.Write_write else Race.Read_write)
                  ~prev_future:prev.fid ~cur_future:v.fid));
      on_work = (fun _ _ -> ());
    }
  in
  {
    Detector.name = "f-order";
    callbacks;
    root = Fo { pos = root_pos; block = None; fid = 0; nsp = Exit_map.empty eng };
    races;
    queries = (fun () -> Atomic.get queries);
    reach_words = (fun () -> Sp_order.words spo + Exit_map.live_words eng);
    reach_table_words = (fun () -> Exit_map.total_words eng);
    history_words = (fun () -> Access_history.words history);
    max_readers = (fun () -> Access_history.max_readers_at_once history);
    metrics;
    supports_parallel = true;
  }
