(** Race reports and their thread-safe collector.

    A determinacy race: two logically parallel accesses to one location,
    at least one a write. The detectors report every race they find; the
    collector deduplicates per location (keeping the first witnessed pair
    and a count), since the correctness guarantee race detectors give is
    per-location: a race is reported for location [l] iff the program has
    a race on [l] for this input.

    Each domain slot ([Domain.self () land 127]) collects into its own
    table behind its own mutex, so concurrent reporters contend only when
    two live domains share a slot. The read functions merge the tables:
    counts sum, and the earliest first witness (in the collector-wide
    order in which slots first saw the location) gives the kind and the
    futures. A serial run fills one table, so its reports are exactly
    those of a single shared table. *)

type kind = Read_write | Write_write | Write_read
(** First component is the earlier (stored) access. *)

type report = {
  loc : int;
  kind : kind;
  prev_future : int;
  cur_future : int;
  count : int;  (** how many races were witnessed at this location *)
}

type t

val create : unit -> t
val report : t -> loc:int -> kind:kind -> prev_future:int -> cur_future:int -> unit
val racy_locations : t -> int list
(** Sorted, distinct. *)

val reports : t -> report list
(** One per racy location, sorted by location. *)

val total_witnessed : t -> int
(** Races witnessed, summed over every location. *)

val pp_kind : Format.formatter -> kind -> unit
