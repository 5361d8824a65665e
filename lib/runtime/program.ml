exception Unstructured_use of string

(* A handle's fulfilled/waiters state and its touched flag are atomics
   updated by compare-and-set: no lock, and nothing with a finalizer, per
   future. *)
type 'a handle = { state : 'a fill Atomic.t; touched : bool Atomic.t }

and 'a fill =
  | Waiting of (unit -> unit) list  (** newest waiter first *)
  | Fulfilled of 'a * Events.state  (** result and put-node state *)

type _ Effect.t +=
  | Spawn : (unit -> unit) -> unit Effect.t
  | Sync : unit Effect.t
  | Create : (unit -> 'a) -> 'a handle Effect.t
  | Get : 'a handle -> 'a Effect.t
  | Read : int -> unit Effect.t
  | Write : int -> unit Effect.t
  | Work : int -> unit Effect.t

let spawn f = Effect.perform (Spawn f)
let sync () = Effect.perform Sync
let create f = Effect.perform (Create f)
let get h = Effect.perform (Get h)
let work n = Effect.perform (Work n)

(* -- instrumented memory ---------------------------------------------- *)

type 'a arr = { data : 'a array; base_loc : int }

let next_loc = Atomic.make 0

let alloc n init =
  if n < 0 then invalid_arg "Program.alloc: negative length";
  let base_loc = Atomic.fetch_and_add next_loc n in
  { data = Array.make n init; base_loc }

let length a = Array.length a.data
let base a = a.base_loc

let rd a i =
  Effect.perform (Read (a.base_loc + i));
  a.data.(i)

let wr a i x =
  Effect.perform (Write (a.base_loc + i));
  a.data.(i) <- x

let rd_raw a i = a.data.(i)
let wr_raw a i x = a.data.(i) <- x

(* -- handle internals --------------------------------------------------- *)

module Handle = struct
  type status = Running | Done

  let make () = { state = Atomic.make (Waiting []); touched = Atomic.make false }

  let rec fulfil h x ~last =
    match Atomic.get h.state with
    | Fulfilled _ -> invalid_arg "Handle.fulfil: already fulfilled"
    | Waiting ws as prev ->
        if Atomic.compare_and_set h.state prev (Fulfilled (x, last)) then
          List.iter (fun w -> w ()) (List.rev ws)
        else fulfil h x ~last

  let status h = match Atomic.get h.state with Waiting _ -> Running | Fulfilled _ -> Done

  let result_exn h =
    match Atomic.get h.state with
    | Fulfilled (x, _) -> x
    | Waiting _ -> invalid_arg "Handle.result_exn: not fulfilled"

  let last_exn h =
    match Atomic.get h.state with
    | Fulfilled (_, s) -> s
    | Waiting _ -> invalid_arg "Handle.last_exn: not fulfilled"

  let claim_touch h =
    if not (Atomic.compare_and_set h.touched false true) then
      raise (Unstructured_use "get invoked twice on the same future handle")

  let rec add_waiter h w =
    match Atomic.get h.state with
    | Fulfilled _ -> false
    | Waiting ws as prev ->
        Atomic.compare_and_set h.state prev (Waiting (w :: ws)) || add_waiter h w
end
