(** Embarrassingly parallel offline detection: one structural pass, then
    per-location sharded access checking on N domains.

    Phase 1 replays only the {e structural} events (spawn / create / sync
    / put / get / returned) through a fresh SF-Order instance, building
    the complete reachability structures (WSP-Order positions, cp/gp
    future sets) and collecting the access events — resolved to their
    strand states — in the merge's linearized order. Once the structure
    is complete, [Precedes (u, v)] is frozen for every recorded pair:
    order-maintenance keeps the relative order of inserted strands
    forever, and strand future-sets are immutable once published, so
    phase 2 may query from any number of domains without synchronization.

    Phase 2 hashes each access location to one of [shards] shards
    (multiplicative hashing; a location's whole history lands in exactly
    one shard) and checks each shard on its own domain with a private
    access history and race collector, in phase-1 order. Per-location
    verdicts depend only on that location's access subsequence and on the
    frozen reachability relation — both independent of the shard count —
    so the merged report (sorted by location; shards partition locations,
    so the sort is a disjoint merge) is deterministic: byte-identical for
    1, 2 or 64 shards, and race-for-race identical to a live SF-Order run
    over the execution the log records. *)

type result = {
  reports : Sfr_detect.Race.report list;  (** merged, sorted by location *)
  racy_locations : int list;  (** sorted, distinct *)
  structural : int;  (** structural events replayed in phase 1 *)
  accesses : int;  (** access events checked in phase 2 *)
  shard_sizes : int array;  (** accesses per shard (length [shards]) *)
  queries : int;  (** reachability queries across all shards *)
}

val shard_of : loc:int -> shards:int -> int
(** The partition function (exposed so tests can pin it). *)

type access = { state : Sfr_runtime.Events.state; loc : int; is_write : bool }
(** One recorded access, resolved to its strand state. *)

val check_shard :
  precedes:(Sfr_runtime.Events.state -> Sfr_runtime.Events.state -> bool) ->
  Sfr_runtime.Events.state Sfr_detect.Access_history.t ->
  Sfr_detect.Race.t ->
  access array ->
  unit
(** [check_shard ~precedes history races accesses] checks [accesses], in
    order, against the shard's [history] and reports races into [races].
    [precedes] must be frozen for every pair of states involved. Shared
    with {!Stream_replay}, whose shards keep their history across
    batches. *)

val run : Reader.t -> shards:int -> (result, Replay.error) Stdlib.result
(** @raise Invalid_argument if [shards < 1]. *)
