(** Future ancestry by interval: the [cp] half of Algorithm 1.

    [cp(G) = cp(parent) ∪ {parent}] is exactly the set of [G]'s proper
    ancestors in the future-creation tree, so instead of materializing
    it as a set per future, every future gets a span [{b; e}] of two
    items in one order-maintenance list. A create under parent [P]
    inserts [b] and then [e] immediately after [P.b], so each child's
    span nests inside its parent's, and the spans of a future's
    descendants nest inside its own:

    - [F ∈ cp(G)]  iff  [F.b < G.b < F.e].

    A create is O(1) amortized with no copy, a span is O(1) words, and an
    ancestry query is two seqlock-validated {!Sfr_om.Om.precedes} calls.
    Thread safety follows from {!Sfr_om.Om}: inserts are serialized, and
    the relative order of existing items never changes, so a query
    racing a relabel retries rather than misorders. *)

type t

type span = private { fid : int; b : Sfr_om.Om.item; e : Sfr_om.Om.item }
(** One future. [fid] is its ID: 0 for the root, then 1, 2, … in create
    order. *)

val create : unit -> t * span
(** A fresh tree and its root future. *)

val create_child : t -> span -> span
(** [create_child t p] is a fresh future created under [p].
    Thread-safe. *)

val is_ancestor : t -> span -> span -> bool
(** [is_ancestor t f g] is [f ∈ cp(g)]: [f] is a proper ancestor of
    [g]. *)

val words : t -> int
(** Approximate live machine words of the list — O(k) for k futures. *)
