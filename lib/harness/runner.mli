(** Measurement driver for the benchmark harness.

    Mirrors the paper's experimental configurations (Section 4):
    - [Base]: no detection (the baseline columns);
    - [Reach]: reachability maintenance only — detector callbacks run for
      parallel constructs but memory accesses are not instrumented;
    - [Full]: complete race detection.

    Executions here are serial and wall-clock timed (the T1 columns);
    multi-worker times are produced by {!Sfr_runtime.Sim_sched} over the
    recorded dag (DESIGN.md §5.1), scaled by the measured T1. *)

type mode =
  | Base
  | Reach of (unit -> Sfr_detect.Detector.t)
  | Full of (unit -> Sfr_detect.Detector.t)

type measurement = {
  seconds : float;  (** mean over measured repeats *)
  stddev : float;  (** sample stddev; [0.0] when repeats < 2 *)
  median : float;  (** robust center — what perfdiff compares *)
  mad : float;  (** median absolute deviation; [0.0] when repeats < 2 *)
  samples : float list;  (** the measured times, in run order *)
  warmup : int;  (** discarded repeats that preceded [samples] *)
  queries : int;
  reach_words : int;
  reach_table_words : int;
  history_words : int;
  max_readers : int;
  racy_locations : int;
  metrics : (string * int) list;
      (** the last repeat's {!Sfr_detect.Detector}[.metrics] snapshot —
          named counters (including [gc.*] deltas) attributed to that
          detector instance. *)
}

val time_serial :
  ?warmup:int ->
  repeats:int ->
  (unit -> Sfr_workloads.Workload.instance) ->
  mode ->
  measurement
(** Each repeat instantiates a fresh workload instance and (for detector
    modes) a fresh detector; introspection fields come from the last
    repeat. [warmup] (default 1) extra repeats run first and are excluded
    from every statistic. *)

val time_parallel :
  ?warmup:int ->
  repeats:int ->
  domains:int ->
  (unit -> Sfr_workloads.Workload.instance) ->
  mode ->
  measurement
(** [time_serial] with the work-stealing executor
    ({!Sfr_runtime.Par_exec}) on [domains] domains — real parallel
    execution, not the scheduling simulation, so detector-internal
    contention ([history.cas.retry]) is
    exercised and captured in [metrics]. Wall-clock speedup additionally
    requires that many hardware cores. *)

type recorded = {
  dag : Sfr_dag.Dag.t;
  reads : int;
  writes : int;
  trace_seconds : float;
}

val record : (unit -> Sfr_workloads.Workload.instance) -> recorded
(** One serial traced run: the dag with per-strand costs plus access
    counts (Figure 3, and the input to the scheduling simulation). *)

val simulated_time :
  recorded -> measured_t1:float -> workers:int -> float
(** [measured_t1 × makespan_P / makespan_1]: the measured one-core time
    of a configuration spread over [workers] by greedy scheduling of the
    recorded dag. *)

val reach_only : Sfr_runtime.Events.callbacks -> Sfr_runtime.Events.callbacks
(** Strip the memory-access hooks, keeping the parallel-construct ones. *)
