#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on to bench/perf/main.exe.  Run from the repository root.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "bench/perf/run.sh: run from the root of a full source checkout" >&2
  exit 2
fi
dune build --root . --cache disabled -j 2 --display quiet ./bench/perf/main.exe
exec ./_build/default/bench/perf/main.exe "$@"
