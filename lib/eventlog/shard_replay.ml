module Events = Sfr_runtime.Events
module Detector = Sfr_detect.Detector
module Sf_order = Sfr_detect.Sf_order
module Access_history = Sfr_detect.Access_history
module Race = Sfr_detect.Race
module Metrics = Sfr_obs.Metrics

let m_accesses = Metrics.counter "eventlog.shard.accesses"
let m_shard_max = Metrics.counter ~kind:`Max "eventlog.shard.max_accesses"

type result = {
  reports : Race.report list;
  racy_locations : int list;
  structural : int;
  accesses : int;
  shard_sizes : int array;
  queries : int;
}

(* Fibonacci multiplicative hash: spreads clustered location ranges (each
   workload allocates a contiguous block) evenly over the shards. *)
let shard_of ~loc ~shards =
  if shards = 1 then 0 else (loc * 0x9E3779B1 land max_int) mod shards

type access = { state : Events.state; loc : int; is_write : bool }

let check_shard ~precedes history races (accesses : access array) =
  let future_of = Sf_order.strand_future in
  Array.iter
    (fun { state; loc; is_write } ->
      if is_write then
        Access_history.on_write history ~loc ~accessor:state
          ~check:(fun ~prev ~prev_is_writer ->
            if not (precedes prev state) then
              Race.report races ~loc
                ~kind:(if prev_is_writer then Race.Write_write else Race.Read_write)
                ~prev_future:(future_of prev) ~cur_future:(future_of state))
      else
        Access_history.on_read history ~loc ~accessor:state
          ~check_writer:(fun w ->
            if not (precedes w state) then
              Race.report races ~loc ~kind:Race.Write_read
                ~prev_future:(future_of w) ~cur_future:(future_of state)))
    accesses

(* One shard's private history and collector, checked in phase-1 order. *)
let check_fresh_shard ~precedes accesses =
  let history = Access_history.create ~sync:`Unsynchronized Access_history.Keep_all in
  let races = Race.create () in
  check_shard ~precedes history races accesses;
  races

let run reader ~shards =
  if shards < 1 then invalid_arg "Shard_replay.run: shards must be >= 1";
  let det, precedes = Sf_order.make_with_precedes () in
  let dummy = { state = Events.Unit_state; loc = 0; is_write = false } in
  let accesses = Sfr_support.Vec.create ~dummy () in
  let structural = ref 0 in
  (* phase 1: structural replay + access collection, in linearized order *)
  let apply ~lookup ~define ev =
    match (ev : Log_format.event) with
    | Read { cur; loc } ->
        ignore
          (Sfr_support.Vec.push accesses
             { state = lookup cur; loc; is_write = false })
    | Write { cur; loc } ->
        ignore
          (Sfr_support.Vec.push accesses
             { state = lookup cur; loc; is_write = true })
    | _ ->
        incr structural;
        Replay.apply_callbacks det.Detector.callbacks ~lookup ~define ev
  in
  match Replay.drive reader ~apply ~root:det.Detector.root with
  | Error _ as e -> e
  | Ok _ ->
      let n_accesses = Sfr_support.Vec.length accesses in
      Metrics.add m_accesses n_accesses;
      (* phase 2: partition by location hash, preserving phase-1 order *)
      let shard_sizes = Array.make shards 0 in
      Sfr_support.Vec.iter
        (fun a ->
          let s = shard_of ~loc:a.loc ~shards in
          shard_sizes.(s) <- shard_sizes.(s) + 1)
        accesses;
      Array.iter (fun n -> Metrics.add m_shard_max n) shard_sizes;
      let parts = Array.init shards (fun s -> Array.make shard_sizes.(s) dummy) in
      let fill = Array.make shards 0 in
      Sfr_support.Vec.iter
        (fun a ->
          let s = shard_of ~loc:a.loc ~shards in
          parts.(s).(fill.(s)) <- a;
          fill.(s) <- fill.(s) + 1)
        accesses;
      let shard_races = Array.make shards (Race.create ()) in
      if shards = 1 then
        shard_races.(0) <- check_fresh_shard ~precedes parts.(0)
      else begin
        let domains =
          Array.init (shards - 1) (fun i ->
              Domain.spawn (fun () ->
                  check_fresh_shard ~precedes parts.(i + 1)))
        in
        shard_races.(0) <- check_fresh_shard ~precedes parts.(0);
        Array.iteri
          (fun i d -> shard_races.(i + 1) <- Domain.join d)
          domains
      end;
      (* deterministic merge: shards partition locations, so sorting the
         concatenated per-shard reports by location is a disjoint merge *)
      let reports =
        Array.to_list shard_races
        |> List.concat_map Race.reports
        |> List.sort (fun (a : Race.report) b -> compare a.Race.loc b.Race.loc)
      in
      Ok
        {
          reports;
          racy_locations = List.map (fun (r : Race.report) -> r.Race.loc) reports;
          structural = !structural;
          accesses = n_accesses;
          shard_sizes;
          queries = det.Detector.queries ();
        }
