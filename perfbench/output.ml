(* What a run prints: the env block and the ledger as '#' lines, then,
   as the last line of standard output, one JSON object with the
   correctness counts and the metrics. *)

type metric = {
  name : string;
  value : float;
  spread : (float * float) option;  (** first and third quartile *)
  samples : int option;
  note : string;
}

let metric ?spread ?samples ?(note = "") name value =
  { name; value; spread; samples; note }

(* A median with its quartiles, from raw samples. *)
let summarised ?note name xs =
  metric ?note ~spread:(Pstats.quartiles xs) ~samples:(List.length xs) name
    (Pstats.median xs)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_env kvs =
  Printf.printf "# env {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Spans.json_string k) (Spans.json_string v)) kvs))

let print_ledger ~title ms =
  Printf.printf "# -- %s --\n" title;
  List.iter
    (fun m ->
      let unit_ = Option.value (Names.unit_of m.name) ~default:"" in
      Printf.printf "# %-28s %14.6g %-6s%s%s%s\n" m.name m.value unit_
        (match m.spread with
        | Some (q1, q3) -> Printf.sprintf "  [q1 %.6g, q3 %.6g]" q1 q3
        | None -> "")
        (match m.samples with Some n -> Printf.sprintf "  n=%d" n | None -> "")
        (if m.note = "" then "" else "  " ^ m.note))
    ms

(* The final line. [ms] must name every metric of [names]; only those
   are printed, in that order, with the units of [names]. *)
let result_json ~(account : Account.t) ~names ms =
  let missing =
    List.filter (fun (n, _) -> not (List.exists (fun m -> m.name = n) ms)) names
  in
  if missing <> [] then
    failwith ("perfbench: metrics not computed: " ^ String.concat ", " (List.map fst missing));
  let body =
    List.map
      (fun (n, u) ->
        let m = List.find (fun m -> m.name = n) ms in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string n)
          (json_num m.value) (Spans.json_string u))
      names
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (account.Account.failed = 0 && account.Account.attempted > 0)
    account.Account.attempted account.Account.failed (String.concat ", " body)

let print_result ~account ~names ms = print_endline (result_json ~account ~names ms)
