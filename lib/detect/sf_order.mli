(** SF-Order — the paper's contribution: a parallel on-the-fly determinacy
    race detector for programs with structured futures.

    Reachability (Algorithm 1, Section 3.2) combines three structures:

    + WSP-Order English/Hebrew order maintenance over the pseudo-SP-dag
      ({!Sfr_reach.Sp_order}), answering [u ↠ v] in O(1);
    + [cp(G)] — [G]'s future ancestors, as nested order-maintenance
      spans ({!Sfr_reach.Future_tree}): [F ∈ cp(G)] iff [F]'s span
      encloses [G]'s;
    + [gp(v)] — per-strand bitmap of futures whose last node NSP-precedes
      [v] ({!Sfr_reach.Fp_sets}).

    A query [Precedes(u, v)] for a previous accessor [u ∈ F] against the
    current strand [v ∈ G]:

    - [F = G]: answer [u ↠ v]                                  (Lemma 3.7)
    - [F ∈ cp(G)]: answer [u ↠ v]                        (Lemmas 3.8, 3.9)
    - otherwise: answer [F ∈ gp(v)]                            (Lemma 3.4)

    All three cases are O(1); total reachability-maintenance work is
    O(T1 + k²) (Lemma 3.12), where the k² term is the [gp] copies
    alone: a create inserts two items into the future tree and copies
    nothing.

    Options mirror the paper's design space:
    - [readers]: [`All] stores every reader between writes (what the
      paper's own implementation does, Section 4); [`Two_per_future]
      stores only the leftmost/rightmost reader per future — the 2k bound
      of Lemmas 3.10/3.11.
    - [sets]: [gp] tables as [`Bitmap] (the paper's arrays of 64-bit
      words) or [`Hashed] (hash tables, for the ablation against
      F-Order's representation).
    - [history]: access-history synchronization — [`Cas] (lock-free
      per-location records; see {!Access_history}) or [`Unsynchronized]
      (serial runs only; isolates the synchronization cost, the paper's
      Ablation A). *)

val make :
  ?readers:[ `All | `Two_per_future ] ->
  ?sets:[ `Bitmap | `Hashed ] ->
  ?history:Access_history.sync_mode ->
  unit ->
  Detector.t
(** Defaults: [`All] readers, [`Bitmap] sets, [`Cas] history. *)

val make_with_precedes :
  ?readers:[ `All | `Two_per_future ] ->
  ?sets:[ `Bitmap | `Hashed ] ->
  ?history:Access_history.sync_mode ->
  unit ->
  Detector.t * (Sfr_runtime.Events.state -> Sfr_runtime.Events.state -> bool)
(** The detector plus its raw [Precedes] query over strand states (for
    reachability differential tests and power users); valid during and
    after the execution. *)

val strand_future : Sfr_runtime.Events.state -> int
(** The future dag a strand state belongs to — lets offline drivers
    (e.g. {!Sfr_eventlog}'s sharded replay) attribute race reports to
    futures without reaching into the detector.
    @raise Detect_error.Error on a foreign state. *)
