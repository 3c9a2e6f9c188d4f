# Convenience targets for the PEI reproduction.

.PHONY: install test lint flow flow-mutants sanitize verify determinism telemetry bench-smoke perfbench-smoke sweep-smoke dashboard experiments examples quick clean

install:
	pip install -e . --no-build-isolation

# The tier-1 suite, exactly as ROADMAP.md states it.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

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
# hot-path purity, and the frontier's process-safety rules (see
# docs/analysis.md).  A justified inline waiver
# (`# simflow: ignore[CODE] -- reason`) is the only way to accept a finding.
flow:
	PYTHONPATH=src python -m repro.analysis flow src/repro

# Seeded-defect self-validation: each SIM, FLW and RCE pass must catch
# every mutant planted for its codes, or the target fails (18 mutants,
# ~13 s on a 2-vCPU VM).
flow-mutants:
	PYTHONPATH=src python -m repro.analysis flow-mutants src/repro

# Run the PEI protocol sanitizer over a fig10-sized sweep (~1 min).
sanitize:
	PYTHONPATH=src python -m repro.analysis sanitize

# Bounded protocol verification: exhaustive interleaving exploration judged
# by simsan and the golden model, full-machine coherence pass, and the
# seeded-mutant self-validation (35 s median on a 2-vCPU VM; see
# docs/verification.md).
verify:
	PYTHONPATH=src python -m repro.verify all

# Replay fidelity: run small experiments twice, require bit-identical
# stats and event streams.
determinism:
	PYTHONPATH=src python -m repro.analysis determinism

# Telemetry smoke: run a small benchmark with full observability,
# schema-check the bundles it wrote and render each one with the report
# CLI (see docs/observability.md).  It starts from an empty directory and
# skips the result cache, so every run simulates and writes its bundle and
# the check never reads an earlier run's files (captured traces still
# serve from the cache).
telemetry:
	rm -rf telemetry-out
	REPRO_BENCH_OPS=1500 PYTHONPATH=src \
		python -m repro.bench run fig10 --no-cache --telemetry telemetry-out
	PYTHONPATH=src python -m repro.analysis telemetry telemetry-out
	@for bundle in telemetry-out/*.run.json; do \
		PYTHONPATH=src python -m repro.obs report "$$bundle" || exit 1; \
	done

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

# Benchmark hook guard: the traced sweep-grid pass of perfbench/ wraps
# program functions by name (System._warm_caches, columnar._warm,
# _build_plan, _replay_loop, ...) and clears module caches by name
# (columnar._PLAN_CACHE, generators._SUITE_CACHE), so a rename in src/
# breaks the benchmark.  The untraced eval-figs pass is the path the
# benchmark's end-to-end numbers come from (the simulate tap, the paced
# targets and the program-import subprocess).  Fails unless each run's
# last line reports "correct": true (~70 s on a 2-vCPU VM).
PERFBENCH_CORRECT = python3 -c "import json, sys; sys.exit(0 if json.load(sys.stdin).get('correct') is True else 'perfbench-smoke: the run did not report correct: true')"
perfbench-smoke:
	mkdir -p .perfbench-out
	python3 perfbench/run.py --workload sweep-grid --seed 1 --trace 1 \
		| tee .perfbench-out/smoke.log
	tail -n 1 .perfbench-out/smoke.log | $(PERFBENCH_CORRECT)
	python3 perfbench/run.py --workload eval-figs --seed 1 --trace 0 \
		--seconds 1 --ops 200 | tee .perfbench-out/smoke-untraced.log
	tail -n 1 .perfbench-out/smoke-untraced.log | $(PERFBENCH_CORRECT)

# Adaptive-sweep smoke check: a cold sweep simulates and checkpoints, a
# --fresh warm sweep must replay entirely from the disk cache (zero
# simulations, certified by --assert-warm), and history prints the
# latest record's frontier and sweep-throughput blocks (see "Sweeping at
# scale" in docs/benchmarks.md).
sweep-smoke:
	rm -rf .bench_cache bench-history
	PYTHONPATH=src python -m repro.bench sweep fig8-crossover \
		--points 256 --jobs 2
	PYTHONPATH=src python -m repro.bench sweep fig8-crossover \
		--points 256 --jobs 2 --fresh
	PYTHONPATH=src python -m repro.bench history --assert-warm
	PYTHONPATH=src python -m repro.obs dashboard bench-history

# Regenerate every table (writes benchmarks/results/) and check every
# figure's shape: exits 1, naming each failed claim, when one does not hold.
experiments:
	PYTHONPATH=src python -m repro.bench run all --jobs 2 --out benchmarks/results

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
	PYTHONPATH=src python -m pytest tests/ -q
	PYTHONPATH=src python -m repro.bench run fig10

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
