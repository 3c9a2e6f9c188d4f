"""Tests for the telemetry artifact schema checks (repro.analysis.telemetry)."""

import json

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.telemetry import (
    check_bundle_dir,
    check_chrome_trace,
    check_interval_jsonl,
    check_run_bundle,
    format_problems,
)
from repro.obs.sampler import DELTA_COUNTERS


def interval_record(seq, t, final=False, **stats):
    base = {"pei.issued": float(seq), "runtime.cycles": t}
    base.update(stats)
    return {"seq": seq, "t": t, "final": final, "stats": base,
            "delta": {}, "derived": {}}


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def good_trace():
    return {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "host cores"}},
            {"name": "pim.fadd", "cat": "pei,host", "ph": "X", "pid": 1,
             "tid": 0, "ts": 0.0, "dur": 10.0},
        ],
    }


class TestCheckIntervalJsonl:
    def test_good_series_passes(self, tmp_path):
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [
            interval_record(0, 100.0),
            interval_record(1, 200.0),
            interval_record(2, 250.0, final=True),
        ])
        assert check_interval_jsonl(path) == []

    def test_empty_file_flagged(self, tmp_path):
        path = tmp_path / "a.intervals.jsonl"
        path.write_text("")
        assert any("empty" in p for p in check_interval_jsonl(path))

    def test_invalid_json_flagged(self, tmp_path):
        path = tmp_path / "a.intervals.jsonl"
        path.write_text("{not json\n")
        assert any("invalid JSON" in p for p in check_interval_jsonl(path))

    def test_missing_key_flagged(self, tmp_path):
        record = interval_record(0, 1.0, final=True)
        del record["delta"]
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [record])
        assert any("'delta'" in p for p in check_interval_jsonl(path))

    def test_seq_gap_flagged(self, tmp_path):
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [
            interval_record(0, 1.0),
            interval_record(2, 2.0, final=True),
        ])
        assert any("seq" in p for p in check_interval_jsonl(path))

    def test_time_regression_flagged(self, tmp_path):
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [
            interval_record(0, 200.0),
            interval_record(1, 100.0, final=True),
        ])
        assert any("non-decreasing" in p for p in check_interval_jsonl(path))

    def test_missing_final_flagged(self, tmp_path):
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [
            interval_record(0, 1.0),
            interval_record(1, 2.0),
        ])
        assert any("final" in p for p in check_interval_jsonl(path))

    def test_decreasing_counter_flagged(self, tmp_path):
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [
            interval_record(0, 1.0, **{"dram.reads": 10.0}),
            interval_record(1, 2.0, final=True, **{"dram.reads": 5.0}),
        ])
        assert any("dram.reads" in p for p in check_interval_jsonl(path))

    @pytest.mark.parametrize("name", DELTA_COUNTERS)
    def test_every_sampled_counter_must_not_decrease(self, tmp_path, name):
        # Includes dram.pim_reads/pim_writes, which a hand-kept copy of the
        # sampler's counter list once missed.
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [
            interval_record(0, 1.0, **{name: 10.0}),
            interval_record(1, 2.0, final=True, **{name: 5.0}),
        ])
        assert any(repr(name) in p for p in check_interval_jsonl(path))

    def test_non_numeric_stat_flagged(self, tmp_path):
        record = interval_record(0, 1.0, final=True)
        record["stats"]["pei.issued"] = "lots"
        path = write_jsonl(tmp_path / "a.intervals.jsonl", [record])
        assert any("finite" in p for p in check_interval_jsonl(path))


class TestCheckChromeTrace:
    def test_good_trace_passes(self, tmp_path):
        path = tmp_path / "a.trace.json"
        path.write_text(json.dumps(good_trace()))
        assert check_chrome_trace(path) == []

    def test_missing_trace_events_flagged(self, tmp_path):
        path = tmp_path / "a.trace.json"
        path.write_text("{}")
        assert any("traceEvents" in p for p in check_chrome_trace(path))

    def test_invalid_phase_flagged(self, tmp_path):
        payload = good_trace()
        payload["traceEvents"][1]["ph"] = "Z"
        path = tmp_path / "a.trace.json"
        path.write_text(json.dumps(payload))
        assert any("phase" in p for p in check_chrome_trace(path))

    def test_negative_duration_flagged(self, tmp_path):
        payload = good_trace()
        payload["traceEvents"][1]["dur"] = -1.0
        path = tmp_path / "a.trace.json"
        path.write_text(json.dumps(payload))
        assert any("negative" in p for p in check_chrome_trace(path))

    def test_non_integer_tid_flagged(self, tmp_path):
        payload = good_trace()
        payload["traceEvents"][1]["tid"] = "core0"
        path = tmp_path / "a.trace.json"
        path.write_text(json.dumps(payload))
        assert any("tid" in p for p in check_chrome_trace(path))

    def test_sliceless_trace_flagged(self, tmp_path):
        payload = good_trace()
        payload["traceEvents"] = payload["traceEvents"][:1]  # metadata only
        path = tmp_path / "a.trace.json"
        path.write_text(json.dumps(payload))
        assert any("no complete" in p for p in check_chrome_trace(path))


class TestCheckRunBundle:
    def good_bundle(self):
        return {
            "result": {"workload": "HG"},
            "telemetry": {"metrics": {
                "pei.latency": {"type": "histogram", "p50": 1.0, "p95": 2.0,
                                "p99": 3.0},
            }},
        }

    def test_good_bundle_passes(self, tmp_path):
        path = tmp_path / "a.run.json"
        path.write_text(json.dumps(self.good_bundle()))
        assert check_run_bundle(path) == []

    def test_missing_telemetry_section_flagged(self, tmp_path):
        path = tmp_path / "a.run.json"
        path.write_text(json.dumps({"result": {}}))
        assert any("telemetry" in p for p in check_run_bundle(path))

    def test_unordered_quantiles_flagged(self, tmp_path):
        bundle = self.good_bundle()
        bundle["telemetry"]["metrics"]["pei.latency"]["p95"] = 10.0
        bundle["telemetry"]["metrics"]["pei.latency"]["p99"] = 5.0
        path = tmp_path / "a.run.json"
        path.write_text(json.dumps(bundle))
        assert any("ordered" in p for p in check_run_bundle(path))

    def test_missing_quantile_flagged(self, tmp_path):
        bundle = self.good_bundle()
        del bundle["telemetry"]["metrics"]["pei.latency"]["p95"]
        path = tmp_path / "a.run.json"
        path.write_text(json.dumps(bundle))
        assert any("p50/p95/p99" in p for p in check_run_bundle(path))


class TestCheckBundleDir:
    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            check_bundle_dir(tmp_path)

    def test_collects_all_artifact_kinds(self, tmp_path):
        write_jsonl(tmp_path / "a.intervals.jsonl",
                    [interval_record(0, 1.0, final=True)])
        (tmp_path / "a.trace.json").write_text(json.dumps(good_trace()))
        (tmp_path / "a.run.json").write_text(
            json.dumps({"result": None, "telemetry": {"metrics": {}}}))
        results = check_bundle_dir(tmp_path)
        assert len(results) == 3
        assert not any(results.values())


class TestFormatProblems:
    def test_clean_verdict(self):
        out = format_problems({"a": []})
        assert "clean" in out

    def test_problem_count(self):
        out = format_problems({"a": ["bad thing"]})
        assert "1 problem(s)" in out
        assert "bad thing" in out


class TestAnalysisTelemetryCli:
    def test_directory_clean(self, tmp_path, capsys):
        write_jsonl(tmp_path / "a.intervals.jsonl",
                    [interval_record(0, 1.0, final=True)])
        (tmp_path / "a.trace.json").write_text(json.dumps(good_trace()))
        assert analysis_main(["telemetry", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_individual_file_with_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.intervals.jsonl"
        path.write_text("")
        assert analysis_main(["telemetry", str(path)]) == 1

    def test_empty_directory_errors(self, tmp_path, capsys):
        assert analysis_main(["telemetry", str(tmp_path)]) == 2
        assert "no telemetry artifacts" in capsys.readouterr().err

    def test_unknown_suffix_errors(self, tmp_path, capsys):
        path = tmp_path / "something.txt"
        path.write_text("x")
        assert analysis_main(["telemetry", str(path)]) == 2
