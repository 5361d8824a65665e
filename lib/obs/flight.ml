type kind = Begin | End | Instant

type entry = {
  ts_ns : int;
  name : string;
  kind : kind;
  arg : int;
  dom : int;
  seq : int;
}

(* One ring per Metrics-style domain slot, its cells preallocated on the
   slot's first note as one array per field, each filled from an
   immediate or a literal: a note is plain stores, no allocation. A
   mod-128 slot collision can interleave two domains' sequences, and a
   dump racing a note can read a half-written cell, which a diagnostic
   buffer tolerates. *)
let capacity = 512
let nrings = 128

type cells = {
  ts : int array;
  names : string array;
  kinds : kind array;
  args : int array;
  doms : int array;
  seqs : int array;
}

let no_cells = { ts = [||]; names = [||]; kinds = [||]; args = [||]; doms = [||]; seqs = [||] }
let rings = Array.make nrings no_cells

(* ring [i]'s next sequence number sits at [seq_next.(i * seq_stride)]:
   16 words apart, so no two rings' counters share a cache line *)
let seq_stride = 16
let seq_next = Array.make (nrings * seq_stride) 0

let on = Atomic.make true

let arm () = Atomic.set on true
let disarm () = Atomic.set on false
let armed () = Atomic.get on

let cells_of i =
  let c = rings.(i) in
  if c != no_cells then c
  else begin
    let c =
      {
        ts = Array.make capacity 0;
        names = Array.make capacity "";
        kinds = Array.make capacity Instant;
        args = Array.make capacity 0;
        doms = Array.make capacity 0;
        seqs = Array.make capacity 0;
      }
    in
    rings.(i) <- c;
    c
  end

let note ?(arg = 0) ?(kind = Instant) name =
  if Atomic.get on then begin
    let dom = (Domain.self () :> int) in
    let i = dom land (nrings - 1) in
    let c = cells_of i in
    let seq = seq_next.(i * seq_stride) in
    seq_next.(i * seq_stride) <- seq + 1;
    let j = seq land (capacity - 1) in
    c.ts.(j) <- Prof.now_ns ();
    c.names.(j) <- name;
    c.kinds.(j) <- kind;
    c.args.(j) <- arg;
    c.doms.(j) <- dom;
    c.seqs.(j) <- seq
  end

let clear () = Array.fill seq_next 0 (Array.length seq_next) 0

let entries () =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      let n = min (Array.length c.ts) seq_next.(i * seq_stride) in
      for j = 0 to n - 1 do
        acc :=
          {
            ts_ns = c.ts.(j);
            name = c.names.(j);
            kind = c.kinds.(j);
            arg = c.args.(j);
            dom = c.doms.(j);
            seq = c.seqs.(j);
          }
          :: !acc
      done)
    rings;
  List.sort
    (fun a b ->
      match compare a.ts_ns b.ts_ns with 0 -> compare a.seq b.seq | c -> c)
    !acc

(* -- rendering ---------------------------------------------------------- *)

let kind_label = function Begin -> "begin" | End -> "end" | Instant -> "."

let pp_text ppf =
  match entries () with
  | [] -> Format.fprintf ppf "  (flight recorder empty)@."
  | es ->
      let t0 = (List.hd es).ts_ns in
      List.iter
        (fun e ->
          Format.fprintf ppf "  %12.3f us  dom %-3d %-5s %s%s@."
            (float_of_int (e.ts_ns - t0) /. 1e3)
            e.dom (kind_label e.kind) e.name
            (if e.arg <> 0 then Printf.sprintf " (%d)" e.arg else ""))
        es

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let to_chrome_json () =
  let es = entries () in
  let t0 = match es with [] -> 0 | e :: _ -> e.ts_ns in
  let b = Buffer.create (256 + (96 * List.length es)) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":\"";
      escape b e.name;
      Buffer.add_string b "\",\"cat\":\"flight\",\"ph\":\"";
      Buffer.add_string b
        (match e.kind with Begin -> "B" | End -> "E" | Instant -> "i");
      Buffer.add_string b "\"";
      if e.kind = Instant then Buffer.add_string b ",\"s\":\"t\"";
      if e.arg <> 0 then
        Buffer.add_string b (Printf.sprintf ",\"args\":{\"arg\":%d}" e.arg);
      Buffer.add_string b
        (Printf.sprintf ",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
           (float_of_int (e.ts_ns - t0) /. 1e3)
           e.dom))
    es;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))

(* -- crash dumping ------------------------------------------------------ *)

let crash_path = Atomic.make (Sys.getenv_opt "SFR_FLIGHT_DUMP")
let crash_dumped = Atomic.make false

let set_crash_path p = Atomic.set crash_path p

let reset_crash_guard () = Atomic.set crash_dumped false

(* Other observability components (the telemetry sampler's JSONL stream,
   most importantly) register flush work to run before the process dies
   with the flight window. Hooks must never raise into the dump path. *)
let crash_hooks : (unit -> unit) list Atomic.t = Atomic.make []

let add_crash_hook f =
  let rec loop () =
    let hooks = Atomic.get crash_hooks in
    if not (Atomic.compare_and_set crash_hooks hooks (f :: hooks)) then loop ()
  in
  loop ()

let crash_dump ~reason =
  if not (Atomic.exchange crash_dumped true) then begin
    List.iter (fun f -> try f () with _ -> ()) (Atomic.get crash_hooks);
    Format.eprintf "-- flight recorder (%s) ---------------------------@." reason;
    pp_text Format.err_formatter;
    (match Atomic.get crash_path with
    | None -> ()
    | Some path -> (
        match write_chrome path with
        | () -> Format.eprintf "flight trace written to %s@." path
        | exception Sys_error msg ->
            Format.eprintf "cannot write flight trace: %s@." msg));
    Format.eprintf "---------------------------------------------------@."
  end
