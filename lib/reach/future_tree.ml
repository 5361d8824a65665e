module Om = Sfr_om.Om

type t = { om : Om.t; next_fid : int Atomic.t }

type span = { fid : int; b : Om.item; e : Om.item }

let create () =
  let om, b = Om.create () in
  let e = Om.insert_after om b in
  ({ om; next_fid = Atomic.make 1 }, { fid = 0; b; e })

let create_child t parent =
  let b, e = Om.insert_pair_after t.om parent.b in
  { fid = Atomic.fetch_and_add t.next_fid 1; b; e }

let is_ancestor t f g = Om.precedes t.om f.b g.b && Om.precedes t.om g.b f.e

let words t = Om.words t.om
