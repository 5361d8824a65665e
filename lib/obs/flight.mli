(** Always-on flight recorder: per-domain ring buffers of recent
    events, dumped post-mortem.

    {!Sfr_obs.Trace_event} answers "show me everything" and is off by
    default because unbounded buffering is not free. The flight recorder
    answers the complementary question — {e what was the process doing
    just before it went wrong?} — so it is {b armed by default} and
    bounded: each domain slot owns a fixed ring of the most recent
    entries, overwritten in place.

    {b Cost.} A disarmed note is one atomic flag load. An armed note adds
    one clock read and seven plain stores into the caller's own ring,
    whose cells are preallocated on the slot's first note; it allocates
    nothing (beyond the [Some] box of an [?arg] the caller passes) and
    takes no lock, and each ring's sequence counter sits on its own cache
    line. Notes are kept off the per-task and per-access paths, so the
    recorder costs nothing measurable there.

    {b Events recorded.}
    - [run.start] (arg: workers) and [run.failure], once per parallel
      executor run: the first task exception, before the crash dump, so
      a crash window is never empty whatever the schedule;
    - [steal] (arg: victim worker), per successful steal;
    - [race.report] (arg: location), on the first witness of a location
      by a domain slot of a race collector;
    - [serve.session.open], [serve.session.finish] and
      [serve.crash.session] (arg: session id) in the daemon;
    - whatever else a caller notes (tests, tools).

    A per-task or per-access trace is {!Sfr_obs.Trace_event}'s job, on
    request.

    Rings are indexed by [Domain.self () land 127] like {!Metrics}
    slots: two domains colliding mod 128 can interleave (and lose)
    entries but never crash — acceptable for a diagnostic buffer.

    Dumps render both as aligned text (for stderr) and as Chrome
    [trace_event] JSON (for chrome://tracing / Perfetto). The crash
    hooks wire it to the failure paths: the parallel executor dumps on
    an uncaught task exception, the chaos runner on a differential
    mismatch, and [racedetect run --flight-dump FILE] on demand. *)

type kind = Begin | End | Instant

type entry = {
  ts_ns : int;  (** {!Prof.now_ns} timestamp *)
  name : string;
  kind : kind;
  arg : int;  (** site-specific payload (location, seed, …); 0 if unused *)
  dom : int;  (** recording domain ID *)
  seq : int;  (** per-ring sequence number (monotonic, pre-wrap order) *)
}

val arm : unit -> unit
val disarm : unit -> unit
val armed : unit -> bool
(** Armed by default at module load. *)

val note : ?arg:int -> ?kind:kind -> string -> unit
(** Record an entry into the calling domain's ring (default kind
    [Instant]). Name strings should be literals — the recorder stores
    the pointer, it never copies. *)

val entries : unit -> entry list
(** Snapshot of every live ring entry, oldest first (sorted by
    timestamp). Unsynchronized reads: a dump taken while other domains
    record may miss or tear the newest few entries, never older ones. *)

val clear : unit -> unit

val capacity : int
(** Entries retained per domain ring. *)

val pp_text : Format.formatter -> unit
(** Aligned text dump of {!entries}, timestamps relative to the oldest
    retained entry. *)

val to_chrome_json : unit -> string

val write_chrome : string -> unit
(** Write {!to_chrome_json} to a file.
    @raise Sys_error like [open_out]. *)

(** {1 Crash dumping} *)

val set_crash_path : string option -> unit
(** Where {!crash_dump} additionally writes the Chrome JSON; also
    initialized from the [SFR_FLIGHT_DUMP] environment variable. *)

val add_crash_hook : (unit -> unit) -> unit
(** Register work to run at the start of the first {!crash_dump} —
    e.g. {!Telemetry} flushing its sample stream so a crash loses no
    samples. Hooks run in the dumping domain; exceptions they raise are
    swallowed (the dump must complete). Hooks cannot be removed: keep
    them idempotent and cheap when their component is inactive. *)

val crash_dump : reason:string -> unit
(** Dump the recorder to stderr (text) and, when a crash path is set,
    to that file (Chrome JSON). Only the {e first} call per process
    acts — repeated failures don't bury the interesting dump — until
    {!reset_crash_guard}. Never raises (file errors degrade to a
    stderr line). *)

val reset_crash_guard : unit -> unit
(** Re-enable {!crash_dump} (tests; long-lived drivers between runs). *)
