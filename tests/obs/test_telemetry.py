"""End-to-end tests for the Telemetry facade and the report CLI."""

import json

import pytest

from repro.analysis.telemetry import (
    check_bundle_dir,
    check_chrome_trace,
    check_interval_jsonl,
    check_run_bundle,
)
from repro.core.dispatch import DispatchPolicy
from repro.obs.__main__ import main as obs_main
from repro.obs.telemetry import Telemetry
from repro.system.config import tiny_config
from repro.system.system import System
from repro.workloads.analytics.histogram import Histogram

RUN_OPS = 400


def telemetry_run(interval=500.0, policy=DispatchPolicy.LOCALITY_AWARE):
    telemetry = Telemetry(interval=interval)
    system = System(tiny_config(), policy, telemetry=telemetry)
    result = system.run(Histogram(n_values=2000),
                        max_ops_per_thread=RUN_OPS)
    return telemetry, result


@pytest.fixture(scope="module")
def run():
    return telemetry_run()


class TestTelemetryRun:
    def test_final_sample_matches_run_result_stats(self, run):
        """The ISSUE acceptance criterion: the final cumulative interval
        record equals RunResult.stats exactly (same keys, same values)."""
        telemetry, result = run
        last = telemetry.sampler.last()
        assert last["final"] is True
        assert last["stats"] == result.stats

    def test_interior_samples_taken(self, run):
        telemetry, result = run
        assert len(telemetry.sampler) >= 2  # boundaries + final
        times = [r["t"] for r in telemetry.sampler.records]
        assert times == sorted(times)
        assert times[-1] == result.cycles

    def test_hooks_populated_histograms(self, run):
        telemetry, _ = run
        metrics = telemetry.metrics
        assert metrics.histogram("pei.latency").count > 0
        assert metrics.histogram("pei.lock_wait").count > 0
        assert metrics.histogram("pei.decision_to_completion").count > 0
        assert metrics.histogram("queue.host_operand_buffer").count > 0

    def test_memory_side_run_populates_dram_and_queue_histograms(self):
        # Host-side runs of a cache-resident workload never miss to DRAM;
        # a PIM_ONLY run exercises the vault/off-chip instrumentation.
        telemetry, _ = telemetry_run(policy=DispatchPolicy.PIM_ONLY)
        metrics = telemetry.metrics
        assert metrics.histogram("dram.pim_read_latency").count > 0
        assert metrics.histogram("queue.vault_operand_buffer").count > 0
        assert metrics.histogram("queue.vault_tsv_backlog").count > 0
        assert metrics.histogram("queue.offchip_request_backlog").count > 0
        assert metrics.histogram("pmu.clean_latency").count > 0
        assert metrics.histogram("pei.latency.mem").count > 0

    def test_tracer_recorded_peis(self, run):
        telemetry, _ = run
        assert len(telemetry.tracer) > 0

    def test_summary_schema(self, run):
        telemetry, _ = run
        summary = telemetry.summary()
        assert set(summary) == {"metrics", "intervals", "trace"}
        assert summary["intervals"]["count"] == len(telemetry.sampler)
        assert summary["trace"]["events"] == len(telemetry.tracer.events)
        json.dumps(summary)  # must be JSON-safe


class TestTelemetryWrite:
    def test_bundle_files_written_and_schema_clean(self, run, tmp_path):
        telemetry, result = run
        paths = telemetry.write(tmp_path, "hg_aware", result=result)
        assert set(paths) == {"intervals", "trace", "run"}
        assert check_interval_jsonl(paths["intervals"]) == []
        assert check_chrome_trace(paths["trace"]) == []
        assert check_run_bundle(paths["run"]) == []
        results = check_bundle_dir(tmp_path)
        assert len(results) == 3
        assert not any(results.values())

    def test_run_bundle_embeds_result(self, run, tmp_path):
        telemetry, result = run
        paths = telemetry.write(tmp_path, "hg_aware", result=result)
        bundle = json.loads(paths["run"].read_text())
        assert bundle["result"]["workload"] == result.workload
        assert bundle["result"]["stats"] == result.stats
        assert bundle["files"]["intervals"] == "hg_aware.intervals.jsonl"
        assert bundle["files"]["trace"] == "hg_aware.trace.json"


class TestReportCli:
    @pytest.fixture()
    def bundle_path(self, run, tmp_path):
        telemetry, result = run
        return telemetry.write(tmp_path, "hg_aware", result=result)["run"]

    def test_report_renders_histograms(self, bundle_path, capsys):
        assert obs_main(["report", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "pei.latency" in out
        assert "p95" in out
        assert "hg_aware.trace.json" in out

    def test_report_json_mode(self, bundle_path, capsys):
        assert obs_main(["report", str(bundle_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" in payload

    def test_report_on_bare_run_result(self, run, tmp_path, capsys):
        _, result = run
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(result.to_dict()))
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no telemetry section" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.run.json")]) == 2
        assert "no such file" in capsys.readouterr().err
