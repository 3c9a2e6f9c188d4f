# Convenience targets for the PEI reproduction.

.PHONY: install test lint flow flow-mutants sanitize verify determinism telemetry bench bench-smoke perf-smoke perfbench-smoke sweep-smoke dashboard experiments examples quick clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Static analysis: simflow (SIM + FLW + RCE rules, one parse, one process)
# always runs; ruff/mypy run only where installed (the offline test
# container does not ship them).
lint:
	PYTHONPATH=src python -m repro.analysis flow src/repro
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed; skipping"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy src/repro; \
	else echo "mypy not installed; skipping"; fi

# simflow alone: simulator discipline, cache-key (fingerprint) soundness,
# unit/dimension taint, hot-path purity, and the frontier's process-safety
# rules (see docs/analysis.md).  Reads ./flow-baseline.json when present;
# --update-baseline regenerates it.
flow:
	PYTHONPATH=src python -m repro.analysis flow src/repro

# Seeded-defect self-validation: each SIM, FLW and RCE pass must catch
# every mutant planted for its codes, or the target fails (~70 s).
flow-mutants:
	PYTHONPATH=src python -m repro.analysis flow-mutants src/repro

# Run the PEI protocol sanitizer over a fig10-sized sweep (~1 min).
sanitize:
	PYTHONPATH=src python -m repro.analysis sanitize

# Bounded protocol verification: exhaustive interleaving exploration,
# differential check against the golden model, full-machine coherence pass,
# and the seeded-mutant self-validation (~45 s; see docs/verification.md).
verify:
	PYTHONPATH=src python -m repro.verify all

# Replay fidelity: run small experiments twice, require bit-identical
# stats and event streams.
determinism:
	PYTHONPATH=src python -m repro.analysis determinism

# Telemetry smoke: run a small benchmark with full observability,
# schema-check the bundles it wrote and render each one with the report
# CLI (see docs/observability.md).
telemetry:
	REPRO_BENCH_OPS=1500 PYTHONPATH=src \
		python -m repro.bench run fig10 --telemetry telemetry-out
	PYTHONPATH=src python -m repro.analysis telemetry telemetry-out
	@for bundle in telemetry-out/*.run.json; do \
		PYTHONPATH=src python -m repro.obs report "$$bundle" || exit 1; \
	done

# Regenerate every table and figure (writes benchmarks/results/).
bench:
	pytest benchmarks/ --benchmark-only

# Runner smoke check: cold run simulates and fills the disk cache, warm run
# must be served entirely from it (asserted via the BENCH_*.json trajectory
# records in bench-history/; see docs/benchmarks.md).  Both runs record the
# run ledger, which is then schema-checked (see docs/observability.md).
bench-smoke:
	rm -rf .bench_cache bench-history
	PYTHONPATH=src python -m repro.bench run smoke --jobs 2 --events
	PYTHONPATH=src python -m repro.bench run smoke --jobs 2 --events
	PYTHONPATH=src python -m repro.bench history --assert-warm
	PYTHONPATH=src python -m repro.analysis telemetry bench-history/EVENTS_*.jsonl

# Render the sweep dashboard (stat tiles, timing bars, cache breakdown,
# latency histogram, throughput sparkline) from bench-history/.
dashboard:
	PYTHONPATH=src python -m repro.obs dashboard bench-history

# Engine-throughput gate: two runs each embed an engine microbenchmark
# reading in their trajectory record; --compare fails on a >20% drop
# against the best earlier record (see docs/performance.md).
perf-smoke:
	rm -rf bench-history
	PYTHONPATH=src python -m repro.bench run smoke --jobs 2
	PYTHONPATH=src python -m repro.bench run smoke --jobs 2
	PYTHONPATH=src python -m repro.bench history --compare

# Benchmark hook guard: the traced sweep-grid pass of perfbench/ wraps
# program functions by name (System._warm_caches, columnar._warm,
# _build_plan, _replay_loop, ...) and clears module caches by name
# (columnar._PLAN_CACHE, generators._SUITE_CACHE), so a rename in src/
# breaks the benchmark.  Fails unless the run's last line reports
# "correct": true (~25 s).
perfbench-smoke:
	mkdir -p .perfbench-out
	python3 perfbench/run.py --workload sweep-grid --seed 1 --trace 1 \
		| tee .perfbench-out/smoke.log
	tail -n 1 .perfbench-out/smoke.log | python3 -c \
		"import json, sys; sys.exit(0 if json.load(sys.stdin).get('correct') is True else 'perfbench-smoke: the run did not report correct: true')"

# Adaptive-sweep smoke check: a cold sweep simulates and checkpoints, a
# --fresh warm sweep must replay entirely from the disk cache (zero
# simulations, certified by --assert-warm), and --compare prints the
# sweep-throughput block next to the engine gate (see "Sweeping at
# scale" in docs/benchmarks.md).
sweep-smoke:
	rm -rf .bench_cache bench-history
	PYTHONPATH=src python -m repro.bench sweep fig8-crossover \
		--points 256 --jobs 2
	PYTHONPATH=src python -m repro.bench sweep fig8-crossover \
		--points 256 --jobs 2 --fresh
	PYTHONPATH=src python -m repro.bench history --assert-warm --compare
	PYTHONPATH=src python -m repro.obs dashboard bench-history

# Same, via the CLI (no pytest-benchmark timing around it).
experiments:
	python -m repro.bench run all --out benchmarks/results

# Adoption-path smoke: run every examples/*.py script (each drives
# System.run on live workloads; several end in a functional verify()) and
# fail on the first non-zero exit (~50 s).
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python $$script || exit 1; \
	done

# Fast sanity pass: unit tests plus one cheap experiment.
quick:
	pytest tests/ -q
	python -m repro.bench run fig10

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
