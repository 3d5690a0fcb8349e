.PHONY: all build test lint analyze sanitize cli-errors trace-smoke analyze-smoke overload-smoke shard-smoke flash-smoke top-smoke check bench bench-quick bench-gate bench-gate-fast clean

all: build

build:
	dune build @all

test:
	dune runtest

LINT = ./_build/default/tools/wafl_lint/main.exe
LINT_OK_CEILING = $(shell cat tools/wafl_lint/lint_ok_ceiling)

# Determinism lint: AST walk over lib/ and bin/ flagging stray RNG use,
# wall-clock reads, hash-order iteration and partition-state mutation
# outside the owning modules.  lib/ also may not carry more lint-ok
# escapes than the checked-in ceiling (tools/wafl_lint/lint_ok_ceiling;
# lower it when an escape goes away).  The last two invocations are
# self-checks: the negative fixture must be flagged (exit non-zero), and
# the escape fixture must fail a ceiling one below its own count and
# pass at its count, otherwise the lint or its ratchet has gone blind.
lint:
	dune build tools/wafl_lint/main.exe
	$(LINT) --max-lint-ok $(LINT_OK_CEILING) lib
	$(LINT) bin
	@if $(LINT) test/fixtures/lint_negative.ml >/dev/null 2>&1; then \
	  echo "lint self-check FAILED: negative fixture produced no findings"; \
	  exit 1; \
	else \
	  echo "lint self-check OK: negative fixture flagged"; \
	fi
	@out=$$($(LINT) test/fixtures/lint_negative.ml 2>&1); \
	missed=$$(grep -n '^let _bad_' test/fixtures/lint_negative.ml | cut -d: -f1 | while read n; do \
	  echo "$$out" | grep -q "^test/fixtures/lint_negative.ml:$$n:" || echo $$n; done); \
	if [ -n "$$missed" ]; then \
	  echo "lint self-check FAILED: negative fixture lines not flagged:" $$missed; \
	  exit 1; \
	else \
	  echo "lint self-check OK: every _bad_ line of the negative fixture flagged"; \
	fi
	@if $(LINT) --max-lint-ok 1 test/fixtures/lint_escapes.ml >/dev/null 2>&1 \
	  || ! $(LINT) --max-lint-ok 2 test/fixtures/lint_escapes.ml >/dev/null 2>&1; then \
	  echo "lint ratchet self-check FAILED: escape fixture not counted exactly"; \
	  exit 1; \
	else \
	  echo "lint ratchet self-check OK: escape fixture counted"; \
	fi

ANALYZER = ./_build/default/tools/wafl_analyzer/main.exe

# Whole-program static analysis over the typedtrees (.cmt files):
# probe coverage for shared mutable state on scheduler-reachable paths,
# blocking calls under held mutexes, lock-order cycles, and the
# probe_locked-domain / Isolation-owner cross-check.  `dune build @all`
# first so every .cmt exists.  The second invocation is a self-check:
# the defect fixtures under test/fixtures/analyzer must be flagged
# (exit non-zero), otherwise the analyzer has gone blind.
analyze:
	dune build @all
	$(ANALYZER) _build/default/lib _build/default/bin
	@if $(ANALYZER) _build/default/test/fixtures/analyzer >/dev/null 2>&1; then \
	  echo "analyzer self-check FAILED: defect fixtures produced no findings"; \
	  exit 1; \
	else \
	  echo "analyzer self-check OK: defect fixtures flagged"; \
	fi

# Sanitized smoke: an ad-hoc run plus the 5-seed crash harness under the
# race detector and affinity-isolation checker.  Any race report or
# isolation violation fails the target.  The crash seeds fan over two
# worker domains — explicitly, so the pool path is exercised even on a
# single-core host where the default would serialize.
sanitize:
	dune build bin/wafl_sim.exe
	dune exec bin/wafl_sim.exe -- run --measure 0.5 --sanitize
	dune exec bin/wafl_sim.exe -- crash --seeds 5 --sanitize --domains 2

# CLI error smoke: a spec the driver rejects (no volumes, no clients) must
# surface as a CLI error naming the field, with a non-zero exit, and not
# as an uncaught exception ("internal error").
cli-errors:
	dune build bin/wafl_sim.exe
	@for args in "top --live --volumes 0" "run --clients 0"; do \
	  if ./_build/default/bin/wafl_sim.exe $$args > _build/cli_errors.txt 2>&1; then \
	    echo "cli-errors FAILED: '$$args' exited 0"; exit 1; \
	  fi; \
	  if grep -q "internal error" _build/cli_errors.txt; then \
	    echo "cli-errors FAILED: '$$args' raised an internal error"; exit 1; \
	  fi; \
	done; echo "cli-errors OK: malformed specs rejected as CLI errors"

# Observability smoke: a tiny traced run must export a trace file that
# is valid Chrome trace-event JSON (the obs test suite checks the JSON
# in depth; this just proves the CLI path end to end).  The trace must
# carry counter series for counts the measurement window reads from the
# registry, so a component that stops publishing one fails here.
trace-smoke:
	dune build bin/wafl_sim.exe
	dune exec bin/wafl_sim.exe -- trace --seed 1 --measure 0.05 --out _build/trace_smoke.json
	@test -s _build/trace_smoke.json || { echo "trace smoke FAILED: no trace file"; exit 1; }
	@for c in cp.count cleaner.buffers raid.full_stripes; do \
	  grep -q "\"name\":\"$$c\",\"cat\":\"metrics\",\"ph\":\"C\"" _build/trace_smoke.json \
	    || { echo "trace smoke FAILED: no $$c counter series"; exit 1; }; \
	done
	@echo "trace smoke OK: _build/trace_smoke.json"

# Causal-analysis smoke: one figure run with --causal, then the offline
# analyzer over its trace.  Asserts the pipeline end to end: the run
# retained every event (no ring drops), and the analyzer extracted a
# connected critical path from an acyclic DAG.  The figure run's exit
# code is ignored (shape checks can MISS at reduced scale); the greps
# are the gate.
# (--domains 2 routes the figure's runs through the worker pool; a
# traced/causal run serializes them again internally so the single
# trace ring stays ordered — the flag still exercises the pool setup.)
analyze-smoke:
	dune build bin/wafl_sim.exe
	-dune exec --no-build bin/wafl_sim.exe -- fig6 --scale 0.1 --domains 2 --causal _build/causal_smoke.json > _build/analyze_smoke_run.txt 2>&1
	@grep -q "0 dropped" _build/analyze_smoke_run.txt || { echo "analyze smoke FAILED: causal run dropped trace events"; exit 1; }
	dune exec --no-build bin/wafl_sim.exe -- analyze _build/causal_smoke.json > _build/analyze_smoke.txt
	@grep -q "dropped events: 0" _build/analyze_smoke.txt || { echo "analyze smoke FAILED: analyzer saw dropped events"; exit 1; }
	@grep -q "acyclic: yes" _build/analyze_smoke.txt || { echo "analyze smoke FAILED: causal graph not acyclic"; exit 1; }
	@grep -q "critical path: CP" _build/analyze_smoke.txt || { echo "analyze smoke FAILED: no critical path extracted"; exit 1; }
	@grep -q "dominant:" _build/analyze_smoke.txt || { echo "analyze smoke FAILED: no bottleneck attribution"; exit 1; }
	@echo "analyze smoke OK: _build/analyze_smoke.txt"

# Overload smoke: the quarter-scale noisy-neighbor experiment (open-loop
# arrivals, watermark back-pressure, per-volume QoS) plus a 5-seed crash
# run whose crash points land inside throttled / back-to-back-CP
# windows.  The experiment exits non-zero if any isolation shape misses
# (victim p99 within 2x baseline with QoS on, no NVRAM exhaustion, ...).
overload-smoke:
	dune build bin/wafl_sim.exe
	dune exec --no-build bin/wafl_sim.exe -- overload --scale 0.25 --domains 2
	dune exec --no-build bin/wafl_sim.exe -- crash --overload --seeds 5 --domains 2

# Shard smoke: a quarter-scale fleet run on the conservative-lookahead
# partitioned engine — 3 aggregate shards coupled through the global
# CP-epoch barrier and fleet telemetry, windows executed on 2 worker
# domains.  The command exits non-zero on any shape miss and prints a
# run digest that is byte-identical at any domain count.
shard-smoke:
	dune build bin/wafl_sim.exe
	dune exec --no-build bin/wafl_sim.exe -- shard --scale 0.25 --shards 3 --domains 2

# Telemetry smoke: the operator fleet view end to end.  A healthy live
# run must export a wafl-top JSON snapshot with sealed windows and an
# empty health feed; the same snapshot must parse back and render; and
# a light-load run with the B2B chaos hook must light the watchdog up.
top-smoke:
	dune build bin/wafl_sim.exe
	dune exec --no-build bin/wafl_sim.exe -- top --live --measure 0.5 --json --out _build/top_smoke.json
	@grep -q '"schema":"wafl-top/1"' _build/top_smoke.json || { echo "top smoke FAILED: no wafl-top schema"; exit 1; }
	@grep -q '"windows":\[{' _build/top_smoke.json || { echo "top smoke FAILED: no sealed rollup windows"; exit 1; }
	@grep -q '"events":\[\]' _build/top_smoke.json || { echo "top smoke FAILED: healthy run emitted health events"; exit 1; }
	dune exec --no-build bin/wafl_sim.exe -- top _build/top_smoke.json > _build/top_smoke.txt
	@grep -q "fleet timeline" _build/top_smoke.txt || { echo "top smoke FAILED: snapshot did not render"; exit 1; }
	dune exec --no-build bin/wafl_sim.exe -- top --live --measure 0.5 --think 300 --cp-ms 3 --window 200 --inject-b2b --json --out _build/top_smoke_b2b.json
	@grep -q '"rule":"b2b_streak"' _build/top_smoke_b2b.json || { echo "top smoke FAILED: injected B2B streak not detected"; exit 1; }
	@echo "top smoke OK: _build/top_smoke.json"

# Flash smoke: the quarter-scale NAND media-model experiment (WAF vs
# device fill / OP / multi-stream write allocation; exits non-zero on
# any shape miss, e.g. streaming-on failing to beat streaming-off at
# high fill) plus a 5-seed crash run on a nearly-full device where
# crashes land mid-GC-cycle and the volatile L2P is rebuilt on recovery.
flash-smoke:
	dune build bin/wafl_sim.exe
	dune exec --no-build bin/wafl_sim.exe -- flash --scale 0.25 --domains 2
	dune exec --no-build bin/wafl_sim.exe -- crash --flash --seeds 5 --domains 2

# Full gate: build everything (lib/ with warnings as errors), run the
# whole test suite (including the Wafl_obs suite: span nesting, trace
# parse-back, byte-identical same-seed traces, off-vs-on bit-identity),
# the determinism lint, the sanitized smoke, a traced-run smoke, then a
# 5-seed crash-harness smoke (random fault plans, crash, recover, fsck,
# acknowledged-write verification).
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	$(MAKE) analyze
	$(MAKE) sanitize
	$(MAKE) cli-errors
	$(MAKE) trace-smoke
	$(MAKE) analyze-smoke
	$(MAKE) overload-smoke
	$(MAKE) flash-smoke
	$(MAKE) shard-smoke
	$(MAKE) top-smoke
	dune exec bin/wafl_sim.exe -- crash --seeds 5 --domains 2
	$(MAKE) bench-gate-fast

bench:
	dune exec bench/main.exe

# Quarter-scale benchmark pass; still writes BENCH_paper.json.
bench-quick:
	WAFL_QUICK=1 dune exec bench/main.exe

BENCH_GATE = ./_build/default/tools/bench_gate/main.exe

# Perf regression gate: a fresh quarter-scale suite (written to _build,
# leaving the committed BENCH_paper.json untouched) must stay within
# 15% (+2 s jitter floor) of the committed per-figure wall times.
bench-gate:
	dune build bench/main.exe tools/bench_gate/main.exe
	WAFL_QUICK=1 WAFL_BENCH_OUT=_build/bench_gate.json dune exec bench/main.exe
	$(BENCH_GATE) BENCH_paper.json _build/bench_gate.json

# Fast subset of the gate for make check: four cheap figures (~5 s of
# simulation) instead of the full ~50 s suite.
bench-gate-fast:
	dune build bench/main.exe tools/bench_gate/main.exe
	WAFL_QUICK=1 WAFL_BENCH_OUT=_build/bench_gate_fast.json WAFL_BENCH_ONLY=fig4,batching,history,overload dune exec bench/main.exe
	$(BENCH_GATE) BENCH_paper.json _build/bench_gate_fast.json

clean:
	dune clean
