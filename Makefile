.PHONY: all build test bench profile perfdiff scaling examples replay-smoke detector-smoke telemetry-smoke serve-smoke serve-obs-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all --scale default --repeats 3

profile:
	dune exec bench/main.exe -- profile --scale small

# Fresh tiny-scale profile vs the committed baseline; exits 1 if any
# (workload, detector) median regressed beyond max(10%, 3xMAD).
perfdiff:
	dune exec bench/main.exe -- profile --scale tiny --repeats 3 --profile-out /tmp/perfdiff_new.json
	dune exec bench/main.exe -- perfdiff BENCH_profile.json /tmp/perfdiff_new.json

# Measured multicore runs (work-stealing executor) per domain count,
# with the contention counters the hot-path optimizations target.
# Regenerates the committed BENCH_scaling.json baseline (tiny scale,
# matching BENCH_profile.json and the CI perf-smoke lane).
scaling:
	dune exec bench/main.exe -- scaling --scale tiny --repeats 3 --domains 1,2,4,8

examples:
	dune exec examples/quickstart.exe
	dune exec examples/smith_waterman.exe
	dune exec examples/pipeline_search.exe
	dune exec examples/race_debugging.exe
	dune exec examples/video_pipeline.exe

# Record mm and sw, replay each with 1 and 4 shards, and require the
# reports to be byte-identical (stdout is shard-count-invariant).
replay-smoke:
	dune build bin/racedetect.exe
	@set -e; for w in mm sw; do \
	  dune exec bin/racedetect.exe -- record -w $$w -s small -o /tmp/$$w.sflog; \
	  dune exec bin/racedetect.exe -- replay /tmp/$$w.sflog --shards 1 > /tmp/$$w.s1.out; \
	  dune exec bin/racedetect.exe -- replay /tmp/$$w.sflog --shards 4 > /tmp/$$w.s4.out; \
	  diff /tmp/$$w.s1.out /tmp/$$w.s4.out && echo "$$w: 1-shard and 4-shard reports identical"; \
	  rm -f /tmp/$$w.sflog /tmp/$$w.s1.out /tmp/$$w.s4.out; \
	done

# Run one workload under every registered detector, driven by the
# registry itself (`racedetect detectors --names`) so a detector added
# to the registry cannot be silently skipped by a stale hard-coded list.
# Detectors with the `parallel` capability also run on 2 domains, which
# puts the compare-and-set access history on real concurrency. Every
# program then runs once with `--check-discipline`, which must verify
# the structured-futures discipline. Last, a racy 2-domain run dumps the
# flight recorder, whose Chrome JSON must parse and hold the race's
# `race.report` note.
detector-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	names=$$(dune exec bin/racedetect.exe -- detectors --names); \
	for d in multibags f-order sf-order sf-order-2pf vc-order; do \
	  echo "$$names" | grep -qx $$d || { echo "detector-smoke: $$d missing from registry" >&2; exit 2; }; \
	done; \
	n=0; \
	for d in $$names; do \
	  echo "== $$d =="; \
	  dune exec bin/racedetect.exe -- run -w mm -s tiny -d $$d; \
	  n=$$((n + 1)); \
	done; \
	par=$$(dune exec bin/racedetect.exe -- detectors | awk '$$2 ~ /(^|,)parallel(,|$$)/ { print $$1 }'); \
	p=0; \
	for d in $$par; do \
	  echo "== $$d -e parallel -j 2 =="; \
	  dune exec bin/racedetect.exe -- run -w mm -s tiny -d $$d -e parallel -j 2; \
	  p=$$((p + 1)); \
	done; \
	test $$p -gt 0 || { echo "detector-smoke: no parallel detector registered" >&2; exit 2; }; \
	for w in mm sort sw hw ferret; do \
	  echo "== $$w --check-discipline =="; \
	  out=$$(dune exec bin/racedetect.exe -- run -w $$w -s tiny --check-discipline); \
	  echo "$$out"; \
	  echo "$$out" | grep -qx "structured-futures discipline verified." \
	    || { echo "detector-smoke: $$w: discipline not verified" >&2; exit 2; }; \
	done; \
	flight=/tmp/detector_smoke_flight.json; \
	echo "== mm -e parallel -j 2 --inject-race --flight-dump =="; \
	dune exec bin/racedetect.exe -- run -w mm -s tiny -e parallel -j 2 \
	  --inject-race --no-verify --flight-dump $$flight; \
	python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); sys.exit(0 if any(e.get("name") == "race.report" for e in d["traceEvents"]) else 1)' $$flight \
	  || { echo "detector-smoke: flight dump lacks a race.report note" >&2; exit 2; }; \
	rm -f $$flight; \
	echo "detector-smoke: $$n registered detectors ran mm/tiny clean, $$p of them on 2 domains; 5 programs passed the discipline check; the flight dump holds the race"

telemetry-smoke:
	dune build bin/racedetect.exe bench/main.exe
	@set -e; \
	dune exec bench/main.exe -- profile --scale tiny --repeats 2 \
	  --telemetry-out /tmp/telemetry.jsonl --sample-ms 5 \
	  --profile-out /tmp/telemetry_profile.json; \
	dune exec bin/racedetect.exe -- telemetry-lint /tmp/telemetry.jsonl --min-samples 2; \
	dune exec bin/racedetect.exe -- metrics-dump -w mm -s tiny --check > /tmp/metrics.prom; \
	rm -f /tmp/telemetry.jsonl /tmp/telemetry_profile.json /tmp/metrics.prom

serve-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	sock=/tmp/serve_smoke.sock; rm -f $$sock /tmp/serve_smoke.log; \
	dune exec bin/racedetect.exe -- serve --socket $$sock \
	  --max-sessions 4 --stats > /tmp/serve_smoke.log 2>&1 & \
	srv=$$!; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.1; done; \
	[ -S $$sock ] || { echo "serve-smoke: daemon never listened" >&2; exit 2; }; \
	dune exec bin/racedetect.exe -- stress-client --socket $$sock \
	  --workload mm --sessions 4 --torn 1; \
	wait $$srv; \
	cat /tmp/serve_smoke.log; \
	grep -q "served 4 session(s)" /tmp/serve_smoke.log; \
	grep -q "ERR_TORN" /tmp/serve_smoke.log; \
	echo "serve-smoke: 4 sessions served (1 torn), clean shutdown"; \
	rm -f /tmp/serve_smoke.log $$sock

# The observability surface end to end against a live daemon: probe the
# admin plane (health + grammar-checked Prometheus scrape) before any
# stream exists, serve a stress mix, then lint the audit log and check
# the trace recorded per-session lifecycle spans.
serve-obs-smoke:
	dune build bin/racedetect.exe
	@set -e; \
	sock=/tmp/serve_obs.sock; \
	rm -f $$sock /tmp/serve_obs.log /tmp/serve_obs_audit.jsonl \
	  /tmp/serve_obs_trace.json /tmp/serve_obs_stats.log; \
	dune exec bin/racedetect.exe -- serve --socket $$sock \
	  --max-sessions 4 --stats \
	  --audit-out /tmp/serve_obs_audit.jsonl \
	  --trace-out /tmp/serve_obs_trace.json > /tmp/serve_obs.log 2>&1 & \
	srv=$$!; \
	for i in $$(seq 1 100); do [ -S $$sock ] && break; sleep 0.1; done; \
	[ -S $$sock ] || { echo "serve-obs-smoke: daemon never listened" >&2; exit 2; }; \
	dune exec bin/racedetect.exe -- serve-stats --socket $$sock --check \
	  > /tmp/serve_obs_stats.log; \
	grep -q "health: healthy" /tmp/serve_obs_stats.log; \
	dune exec bin/racedetect.exe -- stress-client --socket $$sock \
	  --workload mm --sessions 4 --torn 1; \
	wait $$srv; \
	cat /tmp/serve_obs.log; \
	grep -q "served 4 session(s)" /tmp/serve_obs.log; \
	dune exec bin/racedetect.exe -- audit-lint /tmp/serve_obs_audit.jsonl \
	  --min-records 10; \
	grep -q "serve.session" /tmp/serve_obs_trace.json; \
	echo "serve-obs-smoke: admin probe + audit lint + session spans OK"; \
	rm -f /tmp/serve_obs.log /tmp/serve_obs_audit.jsonl \
	  /tmp/serve_obs_trace.json /tmp/serve_obs_stats.log $$sock

clean:
	dune clean
