#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from source, then run one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
if ! dune build --root . ./perfbench/main.exe ./bin/racedetect.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/main.exe "$@"
