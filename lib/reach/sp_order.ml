module Metrics = Sfr_obs.Metrics

(* Per-structure accounting: how many OM insertions each pseudo-SP-dag
   event costs (spawn = 4-5, sync = 1, step = 2). *)
let m_spawns = Metrics.counter "reach.sporder.spawns"
let m_syncs = Metrics.counter "reach.sporder.syncs"
let m_steps = Metrics.counter "reach.sporder.steps"

module Om = Sfr_om.Om

type t = { eng : Om.t; heb : Om.t }

type pos = { e : Om.item; h : Om.item }

type block = { j : Om.item }

let create () =
  let eng, ebase = Om.create () in
  let heb, hbase = Om.create () in
  ({ eng; heb }, { e = ebase; h = hbase })

let spawn t ~cur ~block =
  Metrics.incr m_spawns;
  (* English: u < c < t.  Hebrew: u < t < c (< j). *)
  let ce = Om.insert_after t.eng cur.e in
  let te = Om.insert_after t.eng ce in
  let th = Om.insert_after t.heb cur.h in
  let ch = Om.insert_after t.heb th in
  let block =
    match block with
    | Some b -> b
    | None -> { j = Om.insert_after t.heb ch }
  in
  ({ e = ce; h = ch }, { e = te; h = th }, block)

let sync t ~cur ~block =
  match block with
  | None -> cur
  | Some b ->
      Metrics.incr m_syncs;
      { e = Om.insert_after t.eng cur.e; h = b.j }

let step t ~cur =
  Metrics.incr m_steps;
  { e = Om.insert_after t.eng cur.e; h = Om.insert_after t.heb cur.h }

let precedes t u v =
  Om.precedes t.eng u.e v.e && Om.precedes t.heb u.h v.h

let parallel t u v = (not (precedes t u v)) && not (precedes t v u)

let size t = Om.size t.eng
let words t = Om.words t.eng + Om.words t.heb

let eng_precedes t u v = Om.precedes t.eng u.e v.e
let heb_precedes t u v = Om.precedes t.heb u.h v.h
