module Events = Sfr_runtime.Events
module Sp_order = Sfr_reach.Sp_order
module Fp_sets = Sfr_reach.Fp_sets
module Future_tree = Sfr_reach.Future_tree

type violation = { future : int; message : string }

(* same strand state as SF-Order, minus the access history; a future
   carries its create's continuation strand, for the get check *)
type strand = {
  pos : Sp_order.pos;
  block : Sp_order.block option;
  fut : fut;
  gp : Fp_sets.table;
}

and fut = { span : Future_tree.span; create_cont : strand option }

type Events.state += Dc of strand

let as_dc = function
  | Dc s -> s
  | _ -> Detect_error.foreign_state ~detector:"Discipline" ~context:"state unwrap"

type t = {
  callbacks : Events.callbacks;
  root : Events.state;
  violations : unit -> violation list;
}

let make () =
  let spo, root_pos = Sp_order.create () in
  let eng = Fp_sets.create Fp_sets.Bitmap in
  let futures, root_span = Future_tree.create () in
  let violations = ref [] in
  let violations_mu = Mutex.create () in
  let precedes (u : strand) (v : strand) =
    if u == v then true
    else if u.fut == v.fut then Sp_order.precedes spo u.pos v.pos
    else if Future_tree.is_ancestor futures u.fut.span v.fut.span then
      Sp_order.precedes spo u.pos v.pos
    else Fp_sets.mem v.gp u.fut.span.fid
  in
  let callbacks =
    {
      Events.on_spawn =
        (fun cur ->
          let cur = as_dc cur in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          ( Dc { pos = c_pos; block = None; fut = cur.fut; gp = Fp_sets.share cur.gp },
            Dc { pos = t_pos; block = Some blk; fut = cur.fut; gp = cur.gp } ));
      on_create =
        (fun cur ->
          let cur = as_dc cur in
          let span = Future_tree.create_child futures cur.fut.span in
          let c_pos, t_pos, blk = Sp_order.spawn spo ~cur:cur.pos ~block:cur.block in
          let cont = { pos = t_pos; block = Some blk; fut = cur.fut; gp = cur.gp } in
          let child =
            {
              pos = c_pos;
              block = None;
              fut = { span; create_cont = Some cont };
              gp = Fp_sets.share cur.gp;
            }
          in
          (Dc child, Dc cont));
      on_sync =
        (fun ~cur ~spawned_lasts ~created_firsts:_ ->
          let cur = as_dc cur in
          let pos = Sp_order.sync spo ~cur:cur.pos ~block:cur.block in
          let gp =
            Fp_sets.merge eng cur.gp (List.map (fun s -> (as_dc s).gp) spawned_lasts)
          in
          Dc { pos; block = None; fut = cur.fut; gp });
      on_put = (fun _ -> ());
      on_get =
        (fun ~cur ~put ->
          let cur = as_dc cur and put = as_dc put in
          let fid = put.fut.span.fid in
          (* the structured-use check: the create's continuation must
             reach the getting strand without the future's own edges *)
          (match put.fut.create_cont with
          | Some cont when precedes cont cur -> ()
          | Some _ ->
              Mutex.lock violations_mu;
              violations :=
                {
                  future = fid;
                  message =
                    Printf.sprintf
                      "get on future %d is not reachable from its create's \
                       continuation: unstructured use"
                      fid;
                }
                :: !violations;
              Mutex.unlock violations_mu
          | None -> () (* the root future is never gotten *));
          let pos = Sp_order.step spo ~cur:cur.pos in
          let gp = Fp_sets.merge_add eng cur.gp [ put.gp ] fid in
          Dc { pos; block = cur.block; fut = cur.fut; gp });
      on_returned = (fun ~cont:_ ~child_last:_ -> ());
      on_read = (fun _ _ -> ());
      on_write = (fun _ _ -> ());
      on_work = (fun _ _ -> ());
    }
  in
  {
    callbacks;
    root =
      Dc
        {
          pos = root_pos;
          block = None;
          fut = { span = root_span; create_cont = None };
          gp = Fp_sets.empty eng;
        };
    violations =
      (fun () ->
        Mutex.lock violations_mu;
        let v = List.rev !violations in
        Mutex.unlock violations_mu;
        v);
  }
