(* What a run does, as a pure function of the workload and the seed: the
   inputs, the order of the timed jobs and the session sequence. Nothing
   here touches a clock, so the same seed always yields the same plan. *)

module Prng = Sfr_support.Prng

type workload = Paper_suite | Futures_dense | Serve_stream

let workloads =
  [
    ("paper-suite", Paper_suite);
    ("futures-dense", Futures_dense);
    ("serve-stream", Serve_stream);
  ]

let workload_of_string s = List.assoc_opt s workloads
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* The paper's five programs, in Figure 3 order. *)
let programs = [ "mm"; "sort"; "sw"; "hw"; "ferret" ]

(* The four timed configurations of a detect job: uninstrumented,
   reachability only and full detection on two domains, and full
   detection on one domain. *)
type config = Base | Reach | Full2 | Full1

let configs = [ Base; Reach; Full2; Full1 ]

let config_name = function
  | Base -> "base@2"
  | Reach -> "reach@2"
  | Full2 -> "full@2"
  | Full1 -> "full@1"

let domains = function Base | Reach | Full2 -> 2 | Full1 -> 1

(* Independent streams per purpose, so adding a draw to one purpose
   never shifts another. *)
let stream ~seed salt = Prng.create ((seed * 1_000_003) + salt)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* paper-suite's inputs: every program clean and with [inject_race],
   clean first. *)
let paper_inputs = List.concat_map (fun p -> [ (p, false); (p, true) ]) programs

(* Which paper-suite instances carry [inject_race] in pass [pass]: each
   program alternates between its clean and its racy instance from pass
   to pass, starting on the side the seed picks. Every run so has the
   same job population, and every pair of passes covers every input. *)
let paper_pass_inputs ~seed ~pass =
  let rng = stream ~seed 1 in
  List.mapi
    (fun p _ -> (2 * p) + if (pass + if Prng.bool rng then 1 else 0) mod 2 = 1 then 1 else 0)
    programs

(* futures-dense: the stream of candidate seeds for the synthetic
   programs. *)
let synthetic_candidates ~seed =
  let rng = stream ~seed 2 in
  fun () -> Prng.int rng 1_000_000_000

(* How often each configuration runs per input in a pass: full@2, which
   every headline number uses, three times; the cheap uninstrumented and
   reachability-only jobs twice; full@1, the costliest, once. *)
let repeats = function Full2 -> 3 | Base | Reach -> 2 | Full1 -> 1

(* The jobs of pass [pass] over the input indices [inputs]: every input
   under every configuration, in a seeded order that differs per pass. *)
let pass_jobs ~seed ~pass inputs =
  let jobs =
    Array.of_list
      (List.concat_map
         (fun i -> List.concat_map (fun c -> List.init (repeats c) (fun _ -> (i, c))) configs)
         inputs)
  in
  Array.to_list (shuffle (stream ~seed (1000 + pass)) jobs)

(* serve-stream: the session images are the same ten instances at
   [small] scale; the seed picks the sequence in which sessions stream
   them. *)
let images = paper_inputs

let session_sequence ~seed ~n_images =
  let rng = stream ~seed 3 in
  fun () -> Prng.int rng n_images
