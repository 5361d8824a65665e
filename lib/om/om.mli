(** Order-maintenance lists (Dietz–Sleator / Bender-style two-level
    list labeling).

    WSP-Order keeps executed strands in two total orders (English and
    Hebrew) and answers series-parallel reachability by comparing a node's
    relative position in both. This module provides the underlying ordered
    list with:

    - [insert_after] in O(1) amortized (two-level labeling: items carry a
      label within a group, groups carry a label in the top-level list;
      overflowing groups are split and the top list is relabeled with the
      Bender et al. density-threshold strategy),
    - [precedes] in O(1) worst case on a quiescent list.

    Concurrency: mutations are serialized by a per-list mutex, and label
    reads are validated with a seqlock so queries racing a relabel retry
    rather than misorder. This substitutes for WSP-Order's
    scheduler-integrated parallel rebalancing (DESIGN.md §5.2): asymptotics
    per operation are unchanged; only the contention constant differs. *)

type t
(** An ordered list. *)

type item
(** An element of an ordered list. Items are never removed. *)

val create : unit -> t * item
(** A fresh list containing a single base item. *)

val insert_after : t -> item -> item
(** [insert_after t x] inserts a new item immediately after [x]. *)

val insert_pair_after : t -> item -> item * item
(** [insert_pair_after t x] is [(y, z)] with [x < y < z] adjacent: [y]
    inserted right after [x], then [z] right after [y], under one
    acquisition of the list's lock. *)

val precedes : t -> item -> item -> bool
(** [precedes t x y] is true iff [x] is strictly before [y]. The two items
    must belong to [t]. Thread-safe against concurrent inserts. *)

val compare_items : t -> item -> item -> int

val size : t -> int
(** Number of items. *)

val words : t -> int
(** Approximate live machine words, for Figure-5 style accounting. *)

val check_invariants : t -> unit
(** Raises [Failure] if internal labeling invariants are violated.
    Test hook; walks the whole list. *)

val to_list : t -> item list
(** All items in list order. Test hook. *)
