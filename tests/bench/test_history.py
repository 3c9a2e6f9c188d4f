"""Trajectory-history robustness: unreadable records, worker ordering."""

import json

import pytest

from repro.bench.history import format_observability, load_records


def write_record(history_dir, runid):
    path = history_dir / f"BENCH_{runid}.json"
    path.write_text(json.dumps({
        "schema": "repro.bench.trajectory/1",
        "runid": runid,
    }))
    return path


class TestLoadRecords:
    def test_loads_in_chronological_order(self, tmp_path):
        write_record(tmp_path, "20260101-000000-aaaa")
        write_record(tmp_path, "20260102-000000-bbbb")
        records = load_records(tmp_path)
        assert [r["runid"] for _, r in records] == [
            "20260101-000000-aaaa", "20260102-000000-bbbb"]

    def test_skips_corrupt_record_with_warning(self, tmp_path):
        write_record(tmp_path, "20260101-000000-aaaa")
        # A half-downloaded CI artifact: truncated JSON.
        (tmp_path / "BENCH_20260102-000000-torn.json").write_text(
            '{"schema": "repro.bench.trajectory/1", "run')
        write_record(tmp_path, "20260103-000000-cccc")
        with pytest.warns(UserWarning, match="torn"):
            records = load_records(tmp_path)
        assert [r["runid"] for _, r in records] == [
            "20260101-000000-aaaa", "20260103-000000-cccc"]


class TestFormatObservability:
    def test_workers_sort_numerically(self):
        """JSON string pids must order as numbers: 9 before 10 and 100."""
        record = {"observability": {"workers": {
            "100": {"payloads": 3, "utilization": 0.5},
            "9": {"payloads": 1, "utilization": 0.25},
            "10": {"payloads": 2, "utilization": 0.75},
        }}}
        (line,) = format_observability(record)
        p9 = line.index("pid 9:")
        p10 = line.index("pid 10:")
        p100 = line.index("pid 100:")
        assert p9 < p10 < p100

    def test_empty_record_yields_no_lines(self):
        assert format_observability({}) == []
