(* Correctness accounting: every timed operation (a detect job or a
   session) is compared against the verdict computed for its input in
   set-up, and counted as attempted and, if it disagrees, failed. *)

(* The oracle's verdict on one input: its racy locations normalised by
   the instance's [mem_base], and its event count. *)
type expected = { racy : int list; events : int }

let normalise ~mem_base locs =
  List.sort_uniq compare (List.map (fun l -> l - mem_base) locs)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 5 *)
}

let create () = { attempted = 0; failed = 0; first_failures = [] }

let record t ~ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.first_failures < 5 then
      t.first_failures <- what :: t.first_failures
  end

(* [verified] is the input's own output check ([None] where the program
   has none, as for an injected race, whose output is schedule
   dependent). [racy] is [None] for configurations that do not check
   accesses; those must report nothing. *)
let job_ok ~(expected : expected) ~verified ~racy ~reported =
  verified <> Some false
  &&
  match racy with
  | Some got -> got = expected.racy
  | None -> reported = []

(* A served session is correct when the daemon answered [OK_*] with the
   oracle's racy-location count, over every event of the image. *)
let session_ok ~(expected : expected) ~code ~races ~events =
  (code = Sfr_serve.Frame.Ok_clean || code = Sfr_serve.Frame.Ok_races)
  && races = List.length expected.racy
  && events = expected.events

let failed_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted
