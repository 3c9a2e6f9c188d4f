"""Tests for the sweep dashboard and the hardened obs CLI."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.dashboard import collect_sources, render_html, write_dashboard
from repro.obs.events import EVENT_SCHEMA


def write_record(directory, runid, sims=4, memo=2, disk=2, ops=1e6,
                 wall=3.0):
    payload = {
        "schema": "repro.bench.trajectory/1",
        "runid": runid,
        "jobs": 2,
        "cache": {"enabled": True},
        "settings": {},
        "engine": {},
        "observability": {
            "schema": "repro.obs.frontier/2",
            "cache": {"memo_hits": memo, "disk_hits": disk,
                      "simulations": sims,
                      "hit_rate": (memo + disk) / (memo + disk + sims)},
            "simulate_latency_s": {"count": sims, "mean": 0.2, "p50": 0.2,
                                   "p95": 0.3, "max": 0.4},
            "workers": {"11": {"payloads": sims, "busy_s": 1.0,
                               "utilization": 0.8}},
            "sim_ops_per_second": ops,
        },
        "experiments": [
            {"name": "fig6", "wall_seconds": wall * 0.6, "simulations": sims,
             "memo_hits": memo, "disk_hits": 0, "instructions": 5e5,
             "sim_wall_seconds": wall * 0.5, "sim_ops_per_second": ops},
            {"name": "fig10", "wall_seconds": wall * 0.4, "simulations": 0,
             "memo_hits": 0, "disk_hits": disk, "instructions": 0,
             "sim_wall_seconds": 0.0, "sim_ops_per_second": 0.0},
        ],
        "totals": {"wall_seconds": wall, "simulations": sims,
                   "memo_hits": memo, "disk_hits": disk,
                   "instructions": 5e5, "sim_wall_seconds": wall * 0.5,
                   "trace_captures": 1, "trace_hits": 3,
                   "sim_ops_per_second": ops},
    }
    path = directory / f"BENCH_{runid}.json"
    path.write_text(json.dumps(payload))
    return path


def write_ledger(directory, name="EVENTS_r1.jsonl", durations=(0.1, 0.3)):
    lines = [json.dumps({"seq": 0, "t": 0.0, "kind": "ledger_start",
                         "schema": EVENT_SCHEMA})]
    for i, dur in enumerate(durations):
        lines.append(json.dumps({
            "seq": i + 1, "t": 0.5 * (i + 1), "kind": "simulate_end",
            "fingerprint": "ab", "worker": 9, "dur_s": dur,
            "cycles": 10.0, "instructions": 5}))
    path = directory / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCollect:
    def test_collects_all_three_kinds(self, tmp_path):
        write_record(tmp_path, "r1")
        write_ledger(tmp_path)
        (tmp_path / "sc.run.json").write_text(json.dumps(
            {"result": {"workload": "SC", "policy": "locality-aware",
                        "cycles": 100.0, "instructions": 50},
             "telemetry": None, "files": {}}))
        sources = collect_sources(tmp_path)
        assert len(sources["records"]) == 1
        assert len(sources["ledgers"]) == 1
        assert len(sources["bundles"]) == 1

    def test_file_target_scans_parent_directory(self, tmp_path):
        write_record(tmp_path, "r1")
        bundle = tmp_path / "sc.run.json"
        bundle.write_text(json.dumps({"result": {}, "telemetry": None}))
        sources = collect_sources(bundle)
        assert sources["directory"] == tmp_path
        assert len(sources["records"]) == 1

    def test_torn_files_are_skipped_not_fatal(self, tmp_path):
        write_record(tmp_path, "r1")
        (tmp_path / "BENCH_torn.json").write_text('{"schema": ')
        (tmp_path / "torn.events.jsonl").write_text('{"seq": 0\n{"x"\n')
        sources = collect_sources(tmp_path)
        assert len(sources["records"]) == 1
        assert sources["ledgers"] == []


class TestRenderHtml:
    def test_self_contained_document(self, tmp_path):
        write_record(tmp_path, "r1", ops=8e5)
        write_record(tmp_path, "r2", ops=1e6)
        write_ledger(tmp_path)
        html_text = render_html(collect_sources(tmp_path))
        assert html_text.startswith("<!DOCTYPE html>")
        assert html_text.rstrip().endswith("</html>")
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html_text
        assert "<link" not in html_text
        assert "http" not in html_text.split("</title>")[1]
        # Every advertised panel is present.
        assert "Per-experiment wall time" in html_text
        assert "Cache breakdown" in html_text
        assert "simulate spans" in html_text       # latency histogram
        assert "<svg" in html_text                 # throughput sparkline
        assert "memo hits" in html_text            # legend, not color-alone
        assert "fig6" in html_text and "fig10" in html_text

    def test_empty_directory_degrades_gracefully(self, tmp_path):
        html_text = render_html(collect_sources(tmp_path))
        assert "no BENCH_*.json records" in html_text
        assert html_text.startswith("<!DOCTYPE html>")

    def test_labels_are_escaped(self, tmp_path):
        path = write_record(tmp_path, "r1")
        payload = json.loads(path.read_text())
        payload["experiments"][0]["name"] = "<script>alert(1)</script>"
        path.write_text(json.dumps(payload))
        html_text = render_html(collect_sources(tmp_path))
        assert "<script>" not in html_text

    def test_write_dashboard_default_output(self, tmp_path):
        write_record(tmp_path, "r1")
        out = write_dashboard(tmp_path)
        assert out == tmp_path / "dashboard.html"
        assert out.read_text().startswith("<!DOCTYPE html>")


class TestDashboardCli:
    def test_cli_renders(self, tmp_path, capsys):
        write_record(tmp_path, "r1")
        out = tmp_path / "dash.html"
        assert obs_main(["dashboard", str(tmp_path), "-o", str(out)]) == 0
        assert out.exists()
        assert "dashboard ->" in capsys.readouterr().out

    def test_cli_missing_target_exits_2(self, tmp_path, capsys):
        assert obs_main(["dashboard", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err


class TestReportHardening:
    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "gone.run.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_truncated_bundle_exits_2_with_message(self, tmp_path, capsys):
        torn = tmp_path / "torn.run.json"
        torn.write_text('{"result": {"workload": "SC", "cyc')
        assert obs_main(["report", str(torn)]) == 2
        err = capsys.readouterr().err
        assert "not a valid telemetry bundle" in err
        assert "torn.run.json" in err

    def test_non_object_bundle_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.run.json"
        bad.write_text("[1, 2, 3]")
        assert obs_main(["report", str(bad)]) == 2
        assert "not a valid telemetry bundle" in capsys.readouterr().err


class TestMergeTraceCli:
    def test_merges_directory(self, tmp_path, capsys):
        trace = {"traceEvents": [{"name": "x", "cat": "c", "ph": "X",
                                  "pid": 1, "tid": 0, "ts": 0.0,
                                  "dur": 1.0}],
                 "otherData": {"dropped_events": 0}}
        (tmp_path / "a.trace.json").write_text(json.dumps(trace))
        (tmp_path / "b.trace.json").write_text(json.dumps(trace))
        assert obs_main(["merge-trace", str(tmp_path)]) == 0
        merged = json.loads((tmp_path / "merged.trace.json").read_text())
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert pids == {101, 201}

    def test_includes_frontier_track_when_ledger_present(self, tmp_path):
        trace = {"traceEvents": [{"name": "x", "cat": "c", "ph": "X",
                                  "pid": 1, "tid": 0, "ts": 0.0,
                                  "dur": 1.0}]}
        (tmp_path / "a.trace.json").write_text(json.dumps(trace))
        write_ledger(tmp_path, name="run.events.jsonl")
        assert obs_main(["merge-trace", str(tmp_path)]) == 0
        merged = json.loads((tmp_path / "merged.trace.json").read_text())
        assert merged["otherData"]["frontier_ledger"] == "run.events.jsonl"
        assert any(e["pid"] == 90 for e in merged["traceEvents"])

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert obs_main(["merge-trace", str(tmp_path)]) == 2
        assert "no readable" in capsys.readouterr().err
