# Developer entry points for the GARFIELD reproduction.
#
#   make test           — tier-1 test suite (what CI gates on)
#   make test-session   — streaming Session API suite (pause/resume identity,
#                         until/early-stop, callbacks, registry)
#   make test-scenarios — golden-trace regression suite for the chaos scenarios
#   make test-detection — online Byzantine-detection surface: detectors,
#                         reputation book, eviction lifecycle, fuzz invariants
#   make test-resilience— self-healing runtime surface: retry/backoff, deadline
#                         budgets, hedged pulls, liveness detection, supervision
#   make test-sharding  — sharded parameter-vector surface: ShardMap properties,
#                         shard-parallel GAR equivalence, two-phase protocol,
#                         golden byte-identity, cost-model agreement
#   make test-backends  — transport conformance + golden equivalence across the
#                         serial / threaded / process backends
#   make update-golden  — explicitly re-bless the golden scenario traces
#   make bench-smoke    — the async fastest-q speedup benchmark (~10 s)
#   make bench-hotpath  — zero-copy pipeline vs the frozen legacy copy-chain
#                         rows, the CNN kernels and the column order-statistic
#                         kernel (median rows + the table its row-count cut is
#                         read from); writes BENCH_hotpath.json and checks the
#                         acceptance bar
#   make bench-wire     — negotiated wire formats: bytes on the wire, rounds/sec,
#                         codec MB/s on one and two threads, and an attack x GAR
#                         robustness sweep; writes BENCH_wire.json and checks the
#                         byte ratios
#   make bench-detection— online detection: attack x GAR grid with detection
#                         off/on, per-detector time-to-evict, async quorum-
#                         shrink gain; writes BENCH_detection.json
#   make bench-resilience— self-healing runtime: straggler-storm round time
#                         with hedging + liveness-driven membership shrink,
#                         unscripted SIGKILL recovery; writes BENCH_resilience.json
#   make bench-shard    — sharded aggregation: per-server resident bytes and
#                         shard-parallel throughput vs server count at large d;
#                         writes BENCH_shard.json and checks the acceptance bars
#   make bench-e2e      — the end-to-end round benchmark BENCHMARK.json declares:
#                         four workloads, untraced + traced pass, at SEED (default
#                         1); writes benchmarks/e2e/out/e2e-seed<SEED>.json
#   make bench-e2e-compare A=before.json B=after.json
#                       — before/after rows of two such files; exits 1 on a
#                         regression beyond a bound
#   make bench-e2e-ab PARENT=<rev> WORKLOAD=<name>[,<name>...]|all [SEED=1] [PAIRS=10]
#                       — each named workload on <rev> and on the working tree,
#                         alternated PAIRS times: medians, quartiles and win
#                         count per end-to-end metric (what a perf claim needs)
#   make bench          — the full figure-reproduction benchmark suite (minutes)
#   make fuzz-smoke     — tier-1 scenario-fuzzing smoke: fixed seeds, dozens of
#                         generated scenarios, every invariant checked
#   make fuzz           — tier-2 fuzzing sweep (hundreds of scenarios); writes
#                         the FUZZ_report.json campaign summary
#   make docs-check     — validate README/docs links and path references
#   make loc            — lines under src/repro/ that carry code (no blanks,
#                         comments or docstrings), per package and total;
#                         fails above LOC_MAX, the total of the last PR that
#                         moved it — a PR that raises LOC_MAX says why in
#                         CHANGES.md (ROADMAP: no net growth in src/ lines)
#   make quickstart     — run the Listing 1 end-to-end example

PYTHON ?= python
SEED ?= 1
PAIRS ?= 10
LOC_MAX ?= 8652
export PYTHONPATH := src

.PHONY: test test-session test-scenarios test-detection test-resilience test-sharding test-backends update-golden bench-smoke bench-hotpath bench-wire bench-detection bench-resilience bench-shard bench-e2e bench-e2e-compare bench-e2e-ab bench fuzz-smoke fuzz docs-check loc quickstart

test:
	$(PYTHON) -m pytest -x -q

test-session:
	$(PYTHON) -m pytest tests/core/test_session.py -q

test-scenarios:
	$(PYTHON) -m pytest tests/integration/test_scenarios_golden.py -q

test-detection:
	$(PYTHON) -m pytest -m detection -q

test-resilience:
	$(PYTHON) -m pytest -m resilience -q

test-sharding:
	$(PYTHON) -m pytest -m sharding -q

test-backends:
	$(PYTHON) -m pytest tests/network/test_wire.py tests/network/test_vector_stream.py \
		tests/network/test_rpc_conformance.py tests/integration/test_scenarios_golden.py \
		tests/integration/test_process_chaos.py -q

update-golden:
	$(PYTHON) -m pytest tests/integration/test_scenarios_golden.py -q --update-golden

bench-smoke:
	$(PYTHON) benchmarks/bench_async_speedup.py

bench-hotpath:
	$(PYTHON) benchmarks/bench_hotpath.py

bench-wire:
	$(PYTHON) benchmarks/bench_wire.py

bench-detection:
	$(PYTHON) benchmarks/bench_detection.py

bench-resilience:
	$(PYTHON) benchmarks/bench_resilience.py

bench-shard:
	$(PYTHON) benchmarks/bench_shard.py

bench-e2e:
	python3 benchmarks/e2e/run.py --seed $(SEED)

bench-e2e-compare:
	python3 benchmarks/e2e/run.py --compare $(A) $(B)

bench-e2e-ab:
	python3 scripts/ab_e2e.py --parent $(PARENT) --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS)

bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q -s

fuzz-smoke:
	$(PYTHON) -m pytest tests/fuzz -m "fuzz and not slow" -q

fuzz:
	REPRO_FUZZ_SWEEP=1 $(PYTHON) -m pytest tests/fuzz/test_fuzz_sweep.py -m fuzz -q -s

docs-check:
	$(PYTHON) scripts/check_docs.py

loc:
	$(PYTHON) scripts/count_code.py --max $(LOC_MAX)

# Smoke both fluent entry points end to end: the streamed quickstart session
# and a one-call scenario-driven repro.train run.
quickstart:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) -c "import repro; r = repro.train(scenario='calm_baseline'); print('streamed scenario session:', r.summary())"
