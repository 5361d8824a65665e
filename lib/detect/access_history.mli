(** Shadow memory — the access-history component (paper Sections 3.5, 4).

    Per location the history keeps the last writer and the previous
    readers under one of two policies:

    - [Keep_all]: every reader since the last write (collapsing
      consecutive same-strand reads) — what both F-Order and the paper's
      own SF-Order implementation store;
    - [Lr_per_future]: only the leftmost and rightmost reader per future
      dag — the ≤ 2k bound this paper proves sufficient for structured
      futures (Lemmas 3.10/3.11). Requires English/Hebrew comparators.

    {2 Representation}

    One location is one cell holding an immutable record
    [{writer; readers; nreaders}]: under [Keep_all] the readers are a
    newest-first list, under [Lr_per_future] an immutable map from future
    to its (leftmost, rightmost) pair. Cells live in 512-cell pages,
    reached through a spine indexed by page number. Pages are installed
    lazily by compare-and-set; the spine grows, under a mutex and at least
    doubling, only when a location falls outside the pages it spans, and
    never past 64 slots per installed page. A page beyond that reach goes
    to a sparse map read without a lock, until a later growth adopts it.
    So memory follows the pages touched, not the location range, even
    when locations lie far apart, and a cell never moves once created.

    An access computes the record it leaves behind and swaps it in with
    one compare-and-set (a write, whose record does not depend on the old
    one, with one exchange); a lost compare re-reads the cell and retries
    ([history.cas.retry]). It then runs its race checks against the record
    it displaced. Two cases swap and allocate nothing: a read whose strand
    is already the head reader (or, under [Lr_per_future], that moves
    neither stored extreme), and a write by the installed writer with no
    reader stored ([history.write.fastpath]). These take the record they
    read as the one they are checked against.

    {2 Completeness}

    Every access to a location is checked against exactly the record it
    displaced (or, when it swaps nothing, the record it read, which it
    would have displaced by an equal one). Successful swaps on a cell are
    totally ordered, and each record is the serial update of its
    predecessor, so the checks each location sees are precisely those of
    a serial run that visits its accesses in that linearization order.
    The serial update preserves the per-location reported-iff-a-race-
    exists guarantee for any visiting order consistent with the dag, and
    the linearization is consistent with the dag: if [u ≺ v] then [u]'s
    swap happened before [v] started. Hence no race is missed under any
    schedule, and under a serial execution the reports, query counts and
    reader high-water marks equal those of any serial history.

    {2 Synchronization modes}

    - [`Cas] (default): the design above; parallel-safe.
    - [`Unsynchronized]: the same records, stored with a plain
      [Atomic.set] and no compare — sound only when one domain owns the
      history (a serial run, or one shard of a sharded replay); the
      paper's Ablation A lower bound. *)

type 'a policy =
  | Keep_all
  | Lr_per_future of {
      future_of : 'a -> int;
      more_left : 'a -> 'a -> bool;
          (** [more_left a b]: [a] strictly before [b] in English order. *)
      more_right : 'a -> 'a -> bool;
          (** [more_right a b]: [a] strictly before [b] in Hebrew order
              (i.e. further right in the dag). *)
      covers : 'a -> 'a -> bool;
          (** [covers a b]: [a ≺ b] in the dag — [a] is redundant once [b]
              is stored (Mellor-Crummey's replacement rule). *)
    }

type sync_mode = [ `Cas | `Unsynchronized ]

type 'a t

val create : ?sync:sync_mode -> 'a policy -> 'a t
(** Default [`Cas]. *)

val on_read : 'a t -> loc:int -> accessor:'a -> check_writer:('a -> unit) -> unit
(** Records the reader per policy, then calls [check_writer] on the
    writer of the record it displaced (if any). *)

val on_write :
  'a t -> loc:int -> accessor:'a -> check:(prev:'a -> prev_is_writer:bool -> unit) -> unit
(** Installs the new writer with no readers, then calls [check] on the
    displaced writer and on every displaced reader, newest first
    ([Keep_all]) or in future order ([Lr_per_future]). *)

(** The statistics below read the cells without synchronization; call
    them once accesses have quiesced. *)

val locations_tracked : 'a t -> int
val readers_stored : 'a t -> int
(** Currently stored readers across all locations (two per stored future
    under [Lr_per_future]). *)

val max_readers_at_once : 'a t -> int
(** High-water mark of readers stored for a single location — the
    quantity the paper bounds by 2k for structured futures. *)

val words : 'a t -> int
(** Heap words held: spine, sparse map, installed pages, and
    per-location records with their readers. *)
