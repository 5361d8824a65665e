(** Growable bitsets over dense small-integer universes.

    [gp(v)] in SF-Order (and [cp(G)] in MultiBags) are sets of future
    IDs. Future IDs are dense small integers, so the paper represents
    these sets as arrays of 64-bit words with one bit per future
    (Section 4, "Implementation Overview"). This module is that
    representation: a growable array of OCaml native ints (63 usable bits
    per word). *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty set. [capacity] is a hint in elements, not words. *)

val singleton : int -> t

val mem : t -> int -> bool
(** [mem s i] is whether [i] is in [s]. O(1); out-of-range is [false]. *)

val add : t -> int -> unit
(** [add s i] inserts [i], growing the word array as needed. *)

val remove : t -> int -> unit

val cardinal : t -> int
(** Population count. O(words). *)

val is_empty : t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. *)

val copy : t -> t

val subset : t -> t -> bool
(** [subset a b] is whether [a ⊆ b]; stops at the first word of [a]
    holding a bit [b] lacks. *)

val equal : t -> t -> bool

val each_side_has_private_bit : t -> t -> bool
(** [each_side_has_private_bit a b] is true iff [a] has a bit not in [b]
    AND [b] has a bit not in [a] — the condition under which SF-Order's
    [gp] maintenance must allocate a fresh merged table rather than alias
    one of its parents' tables (Section 3.4). *)

val popcount_word : int -> int
(** Constant-time SWAR population count of one machine word's bit
    pattern (sign bit included) — the kernel behind {!cardinal} and the
    lowest-set-bit {!iter}; exposed for property testing against a
    bit-probing reference. *)

(** [iter f s] applies [f] to every member in ascending order, by
    O(cardinal) lowest-set-bit extraction rather than per-bit probing. *)
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
(** Ascending order. *)

val words : t -> int
(** Number of machine words backing the set, for memory accounting. *)

val pp : Format.formatter -> t -> unit
