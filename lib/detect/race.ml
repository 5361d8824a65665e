type kind = Read_write | Write_write | Write_read

type report = {
  loc : int;
  kind : kind;
  prev_future : int;
  cur_future : int;
  count : int;
}

(* One domain slot's witnesses of one location: its first witness, with
   the collector-wide order [first] in which it was taken, and a count. *)
type witness = {
  w_kind : kind;
  w_prev : int;
  w_cur : int;
  first : int;
  mutable n : int;
}

(* int keys: the functor's [Int.equal] and [Int.hash] spare every lookup
   the polymorphic compare and hash of a plain [Hashtbl] *)
module Loc_tbl = Hashtbl.Make (Int)

type table = { mu : Mutex.t; by_loc : witness Loc_tbl.t }

(* Each domain slot ([Domain.self land 127], as in [Metrics]) reports into
   its own table, created on its first report, so a report takes a mutex
   that only two live domains sharing a slot contend. Reads merge the
   tables: counts sum, and the earliest first witness supplies the kind
   and the futures. A serial run uses one slot. *)
let nslots = 128

type t = { tables : table option Atomic.t array; firsts : int Atomic.t }

let create () = { tables = Array.init nslots (fun _ -> Atomic.make None); firsts = Atomic.make 0 }

let table t =
  let cell = t.tables.((Domain.self () :> int) land (nslots - 1)) in
  match Atomic.get cell with
  | Some tb -> tb
  | None ->
      let tb = { mu = Mutex.create (); by_loc = Loc_tbl.create 16 } in
      if Atomic.compare_and_set cell None (Some tb) then tb else Option.get (Atomic.get cell)

let report t ~loc ~kind ~prev_future ~cur_future =
  let tb = table t in
  Mutex.lock tb.mu;
  match Loc_tbl.find_opt tb.by_loc loc with
  | Some w ->
      w.n <- w.n + 1;
      Mutex.unlock tb.mu
  | None ->
      let first = Atomic.fetch_and_add t.firsts 1 in
      Loc_tbl.add tb.by_loc loc
        { w_kind = kind; w_prev = prev_future; w_cur = cur_future; first; n = 1 };
      Mutex.unlock tb.mu;
      (* a race report is exactly the kind of event a post-mortem wants to
         see in context with the surrounding scheduling activity *)
      Sfr_obs.Flight.note ~arg:loc "race.report"

let fold_witnesses t f init =
  Array.fold_left
    (fun acc cell ->
      match Atomic.get cell with
      | None -> acc
      | Some tb -> Mutex.protect tb.mu (fun () -> Loc_tbl.fold f tb.by_loc acc))
    init t.tables

let reports t =
  (* by location and, within one, earliest first witness first *)
  let ws =
    List.sort
      (fun (l, w) (l', w') -> if l <> l' then Int.compare l l' else Int.compare w.first w'.first)
      (fold_witnesses t (fun loc w acc -> (loc, w) :: acc) [])
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (loc, w) :: rest ->
        let rec absorb count = function
          | (l, (w' : witness)) :: rest when l = loc -> absorb (count + w'.n) rest
          | rest -> (count, rest)
        in
        let count, rest = absorb w.n rest in
        merge ({ loc; kind = w.w_kind; prev_future = w.w_prev; cur_future = w.w_cur; count } :: acc) rest
  in
  merge [] ws

let racy_locations t = List.sort_uniq Int.compare (fold_witnesses t (fun loc _ acc -> loc :: acc) [])
let total_witnessed t = fold_witnesses t (fun _ w acc -> acc + w.n) 0

let pp_kind ppf = function
  | Read_write -> Format.pp_print_string ppf "read-write"
  | Write_write -> Format.pp_print_string ppf "write-write"
  | Write_read -> Format.pp_print_string ppf "write-read"
