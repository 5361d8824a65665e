(* Spans at the benchmark's own boundaries (run, pass, job, session),
   kept in memory and written as JSON lines when the run ends. Only the
   traced run records them. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0_ns : int;
  t1_ns : int;
  attrs : (string * string) list;
}

type t = { mutable on : bool; mutable next : int; mutable spans : span list }

let create ~on = { on; next = 1; spans = [] }

(* Run [f] inside a span; [f] receives the span id, to parent its
   children. With recording off, [f] runs with id 0 and nothing is
   kept. *)
let with_span t ?(parent = 0) ?(attrs = []) name f =
  if not t.on then f 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    let t0_ns = Probe.now_ns () in
    let r = f id in
    t.spans <- { id; parent; name; t0_ns; t1_ns = Probe.now_ns (); attrs } :: t.spans;
    r
  end

(* A span whose interval was measured elsewhere (a served session is
   timed by the client state machine, not by a closure). *)
let add t ?(parent = 0) ?(attrs = []) name ~t0_ns ~t1_ns =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent; name; t0_ns; t1_ns; attrs } :: t.spans
  end

let count t = List.length t.spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%s,\"t0_ns\":%d,\"t1_ns\":%d%s}\n"
        s.id s.parent (json_string s.name) s.t0_ns s.t1_ns
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ",%s:%s" (json_string k) (json_string v)) s.attrs)))
    (List.rev t.spans);
  close_out oc
