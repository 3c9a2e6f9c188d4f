"""Tests for the sweep-scale frontier: sampler, checkpoints, scheduling.

Three contracts are pinned here:

* **Determinism** — the adaptive sampler's refinement sequence is a pure
  function of (seed, grid, metric values), and a sweep run under any
  worker count / schedule produces bit-identical per-point results.
* **Budget and fidelity** — adaptive sampling stays within its hard
  evaluation budget and still resolves the same threshold crossing an
  exhaustive sweep finds, to adjacent-grid-index resolution.
* **Resumability** — a sweep killed between rounds resumes from its
  checkpoint, replays the recorded rounds without divergence, and
  finishes bit-identical to an uninterrupted run.
"""

import math

import pytest

from repro.bench import runner
from repro.bench.frontier import execute_batch
from repro.bench.sweep import (
    SWEEPS,
    AdaptiveSampler,
    SweepError,
    SweepRunner,
    SweepSpec,
    SweepState,
    log_grid,
)
from repro.bench.traces import trace_request_key
from repro.system import columnar


@pytest.fixture(autouse=True)
def clean_runner():
    runner.clear_cache()
    runner.reset_accounting()
    runner.set_jobs(1)
    runner.set_schedule("affinity")
    yield
    runner.clear_cache()
    runner.reset_accounting()
    runner.set_jobs(1)
    runner.set_schedule("affinity")
    runner.disable_disk_cache()


def tiny_spec(points=12, metric="fig8", max_ops=300):
    """A fast sweep spec: real simulations, minimal op cap."""
    return SweepSpec(
        name="test-sweep", workload="HG", size="small", axis="n_values",
        values=log_grid(1000, 32000, points), metric=metric, threshold=0.5,
        config="tiny", seed=7, max_ops_per_thread=max_ops)


def drive(sampler, fn):
    """Run a sampler to convergence against a synthetic metric function."""
    planned = sampler.first_round()
    while planned:
        sampler.record_round(planned, [fn(i) for i in planned])
        planned = sampler.next_round()
    return sampler


class TestLogGrid:
    def test_endpoints_and_monotonic(self):
        grid = log_grid(1000, 64000, 32)
        assert grid[0] == 1000 and grid[-1] == 64000
        assert list(grid) == sorted(set(grid))

    def test_log_spacing(self):
        grid = log_grid(1000, 64000, 7)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) / min(ratios) < 1.01

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_grid(0, 100, 4)
        with pytest.raises(ValueError):
            log_grid(100, 100, 4)
        with pytest.raises(ValueError):
            log_grid(1, 100, 1)


class TestSpec:
    def test_rejects_unknown_metric(self):
        with pytest.raises(SweepError, match="metric"):
            tiny_spec(metric="nope")

    def test_rejects_unsorted_values(self):
        with pytest.raises(SweepError, match="sorted"):
            SweepSpec(name="x", workload="HG", size="small",
                      axis="n_values", values=(2000, 1000))

    def test_requests_resolved_and_policy_complete(self):
        spec = tiny_spec()
        requests = spec.requests_for(0)
        assert [r.policy for r in requests] == list(spec.policies)
        assert all(r.resolved for r in requests)

    def test_point_requests_share_trace_key(self):
        """All policies of one grid point replay one capture."""
        spec = tiny_spec()
        keys = [trace_request_key(r) for r in spec.requests_for(3)]
        assert all(k == keys[0] for k in keys)

    def test_fingerprint_sensitive_to_grid(self):
        assert tiny_spec(points=12).fingerprint() != \
            tiny_spec(points=16).fingerprint()

    def test_registry_builds_valid_specs(self):
        for name, factory in SWEEPS.items():
            spec = factory(points=16)
            assert spec.name == name
            assert len(spec.values) >= 2
            assert spec.requests_for(0)


class TestSampler:
    def test_same_seed_same_refinement(self):
        """Satellite contract: seed+grid ⇒ identical rounds and points."""
        fn = lambda i: 1.0 / (1.0 + math.exp(-(i - 600) / 40.0))  # noqa: E731
        a = drive(AdaptiveSampler(n=1024, seed=7, threshold=0.5), fn)
        b = drive(AdaptiveSampler(n=1024, seed=7, threshold=0.5), fn)
        assert a.history == b.history
        assert a.metrics == b.metrics

    def test_budget_enforced(self):
        # A pathological metric that looks interesting everywhere.
        fn = lambda i: float(i % 2)  # noqa: E731
        sampler = drive(
            AdaptiveSampler(n=1024, seed=7, max_fraction=0.40, threshold=0.5),
            fn)
        assert len(sampler.metrics) <= int(0.40 * 1024)

    def test_crossover_matches_exhaustive(self):
        """Adaptive refinement pins the same adjacent-index crossing."""
        fn = lambda i: 1.0 / (1.0 + math.exp(-(i - 600) / 40.0))  # noqa: E731
        sampler = drive(AdaptiveSampler(n=1024, seed=7, threshold=0.5), fn)
        lo, hi = sampler.crossover()
        assert hi - lo == 1
        exhaustive = next(i for i in range(1023)
                          if (fn(i) - 0.5) * (fn(i + 1) - 0.5) <= 0)
        assert lo == exhaustive
        # Way below budget: a smooth curve needs only the crossing refined.
        assert len(sampler.metrics) < 0.40 * 1024

    def test_first_round_includes_endpoints(self):
        sampler = AdaptiveSampler(n=100, seed=1)
        first = sampler.first_round()
        assert first[0] == 0 and first[-1] == 99

    def test_no_crossover_when_none_exists(self):
        sampler = drive(AdaptiveSampler(n=64, seed=1, threshold=0.5),
                        lambda i: 2.0 + i / 64.0)
        assert sampler.crossover() is None


class TestSweepRunner:
    def test_adaptive_matches_full_crossover(self, tmp_path):
        spec = tiny_spec(points=16)
        full = SweepRunner(spec).run(full=True)
        runner.clear_cache()
        adaptive = SweepRunner(spec).run()
        assert adaptive["evaluated"] <= max(
            math.ceil(0.40 * adaptive["grid_points"]), 9)
        if full["crossover"] is None:
            assert adaptive["crossover"] is None
        else:
            # Within one grid step of the exhaustive answer.
            assert abs(adaptive["crossover"]["below_index"]
                       - full["crossover"]["below_index"]) <= 1

    def test_serial_and_sharded_bit_identical(self, tmp_path):
        spec = tiny_spec(points=8)
        serial = SweepRunner(spec).run()
        runner.clear_cache()
        runner.set_jobs(2)
        runner.set_schedule("affinity")
        sharded = SweepRunner(spec).run()
        assert serial["points"] == sharded["points"]
        assert serial["crossover"] == sharded["crossover"]
        assert serial["rounds_points"] == sharded["rounds_points"]

    def test_fifo_schedule_same_results(self, tmp_path):
        spec = tiny_spec(points=8)
        affinity = SweepRunner(spec).run()
        runner.clear_cache()
        runner.set_jobs(2)
        runner.set_schedule("fifo")
        fifo = SweepRunner(spec).run()
        assert affinity["points"] == fifo["points"]

    def test_resume_bit_identical_to_uninterrupted(self, tmp_path):
        """Satellite contract: kill-and-resume == uninterrupted."""
        # 32 points => budget 12 > first round's 9, so refinement spans
        # several rounds and stop_after_rounds=1 really interrupts it.
        spec = tiny_spec(points=32)
        # The reference gets its own disk cache so the interrupted run's
        # warm-restart accounting is not polluted by reference results.
        runner.enable_disk_cache(tmp_path / "ref-cache")
        reference = SweepRunner(spec,
                                checkpoint=tmp_path / "ref.json").run()
        runner.clear_cache()
        runner.enable_disk_cache(tmp_path / "cache")
        ck = tmp_path / "ck.json"
        partial = SweepRunner(spec, checkpoint=ck).run(stop_after_rounds=1)
        assert partial["completed"] is False
        assert ck.exists()
        runner.clear_cache()
        sims_before = runner.accounting().simulations
        resumed = SweepRunner(spec, checkpoint=ck).run()
        assert resumed["completed"] is True
        assert resumed["resumed_rounds"] == 1
        # Replayed rounds come from the warm disk cache: no re-simulation.
        replayed_points = len(partial["points"])
        simulated = runner.accounting().simulations - sims_before
        assert simulated == (resumed["evaluated"] - replayed_points) \
            * len(spec.policies)
        for key in ("points", "crossover", "rounds_points", "evaluated"):
            assert resumed[key] == reference[key], key

    def test_checkpoint_from_other_spec_discarded(self, tmp_path):
        ck = tmp_path / "ck.json"
        SweepState(fingerprint="not-this-spec").write(ck)
        assert SweepState.load(ck, tiny_spec().fingerprint()) is None

    def test_tampered_checkpoint_metrics_raise(self, tmp_path):
        spec = tiny_spec(points=8)
        cache = tmp_path / "cache"
        runner.enable_disk_cache(cache)
        ck = tmp_path / "ck.json"
        SweepRunner(spec, checkpoint=ck).run(stop_after_rounds=1)
        state = SweepState.load(ck, spec.fingerprint())
        state.metrics[0][0] += 0.25
        state.write(ck)
        runner.clear_cache()
        with pytest.raises(SweepError, match="diverge"):
            SweepRunner(spec, checkpoint=ck).run()

    def test_full_evaluates_everything(self):
        spec = tiny_spec(points=8)
        report = SweepRunner(spec).run(full=True)
        assert report["evaluated"] == report["grid_points"]
        assert report["evaluated_fraction"] == 1.0
        assert report["rounds"] == 1

    def test_report_throughput_fields(self):
        report = SweepRunner(tiny_spec(points=8)).run()
        assert report["points_per_second"] > 0
        assert report["wall_seconds"] > 0
        assert report["simulated"] == report["evaluated"] * 3


class TestAffinityScheduling:
    def _frontier(self, spec, indices):
        requests, traces = [], []
        store = runner.trace_store()
        for index in indices:
            for request in spec.requests_for(index):
                resolved = request.resolve(runner.current_settings())
                requests.append(resolved)
                traces.append(store.get_or_capture(resolved))
        return requests, traces

    def test_affinity_plan_cache_optimal(self):
        """Every point's policy trio lands on one worker: per point the
        plan is compiled once and reused twice, and the shared-memory
        trace is decoded once and memo-served twice."""
        spec = tiny_spec(points=12)
        indices = [0, 4, 8]
        requests, traces = self._frontier(spec, indices)
        # Forked workers inherit this process's plan cache: start it empty
        # so plans an earlier test compiled for these traces do not hit.
        columnar._PLAN_CACHE.clear()
        envelopes = execute_batch(requests, jobs=3, traces=traces,
                                  schedule="affinity")
        plan = {"hits": 0, "misses": 0}
        decode = {"decodes": 0, "memo_hits": 0}
        for envelope in envelopes:
            for key in plan:
                plan[key] += envelope["worker"]["plan_cache"][key]
            for key in decode:
                decode[key] += envelope["worker"]["trace_decode"][key]
        # 3 points x 3 policies: per point one plan key shared by every
        # policy => 1 miss + 2 hits, and 1 segment decode + 2 memo hits.
        assert plan["misses"] == 1 * len(indices)
        assert plan["hits"] == 2 * len(indices)
        assert decode["decodes"] == 1 * len(indices)
        assert decode["memo_hits"] == 2 * len(indices)

    def test_affinity_bit_identical_to_fifo_and_serial(self):
        spec = tiny_spec(points=12)
        requests, traces = self._frontier(spec, [0, 5])
        serial = execute_batch(requests, jobs=1, traces=traces)
        affinity = execute_batch(requests, jobs=2, traces=traces,
                                 schedule="affinity")
        fifo = execute_batch(requests, jobs=2, traces=traces,
                             schedule="fifo")
        assert [e["result"] for e in serial] == \
            [e["result"] for e in affinity] == \
            [e["result"] for e in fifo]

    def test_rejects_unknown_schedule(self):
        spec = tiny_spec(points=12)
        requests, traces = self._frontier(spec, [0])
        with pytest.raises(ValueError, match="schedule"):
            execute_batch(requests, jobs=2, traces=traces, schedule="lifo")
