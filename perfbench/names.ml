(* The metric names the benchmark prints, with their units. They must
   match BENCHMARK.json; the tests check that they do. *)

let end_to_end =
  [
    ("events_per_s", "1/s");
    ("overhead_x", "x");
    ("reach_overhead_x", "x");
    ("speedup_x", "x");
    ("verdict_p50_ms", "ms");
    ("verdict_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("runtime.self_s", "s");
    ("runtime.tasks", "count");
    ("runtime.steals", "count");
    ("reach.calls", "count");
    ("reach.busy_s", "s");
    ("reach.queries", "count");
    ("reach.table_words", "words");
    ("reach.words", "words");
    ("om.relabels", "count");
    ("om.depa.heap_spills", "count");
    ("history.accesses", "count");
    ("history.busy_s", "s");
    ("history.lock.contended", "count");
    ("history.cas.retry", "count");
    ("history.fastpath_ratio", "ratio");
    ("history.words", "words");
    ("history.max_readers", "count");
    ("race.racy_locations", "count");
    ("eventlog.replay_s", "s");
    ("eventlog.stream.shard_checks", "count");
    ("serve.hello_ms", "ms");
    ("serve.credit_wait_s", "s");
    ("serve.close_to_verdict_ms", "ms");
    ("serve.transport_s", "s");
    ("serve.frames.in", "count");
    ("serve.shed.sessions", "count");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("unattributed_s", "s");
    ("trace.overhead_x", "x");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> Some u
  | None -> List.assoc_opt name per_layer
