"""Tests for the benchmark CLI (python -m repro.bench)."""

import json
import shutil

import pytest

from repro.bench import __main__ as cli
from repro.bench import frontier, runner
from repro.bench.__main__ import EXPERIMENTS, NOT_IN_ALL, main
from repro.bench.experiments import ExperimentReport
from repro.bench.frontier import RunRequest
from repro.bench.history import load_records
from repro.core.dispatch import DispatchPolicy


ABLATIONS = {"ablation_directory_size", "ablation_ignore_flag", "ablation_link_asymmetry",
             "ablation_replacement_policy", "ablation_warm_start"}


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig6", "fig12", "sec76", "smoke",
                     "sweep_scale", *ABLATIONS):
            assert name in out

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11a", "fig11b", "sec76", "fig12", "sweep_scale", "smoke",
        } | ABLATIONS

    def test_each_entry_carries_its_own_check(self):
        for name, entry in EXPERIMENTS.items():
            assert entry.check.__name__ == f"check_{name}"

    def test_smoke_excluded_from_all(self):
        assert "smoke" in NOT_IN_ALL

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(ValueError):
            main(["run", "smoke", "--jobs", "0", "--no-cache",
                  "--history-dir", str(tmp_path)])


def no_failed_claims(report):
    return []


@pytest.fixture
def fake_experiments(monkeypatch):
    """Replace every experiment with an instant stub (records calls) whose
    check passes."""
    calls = []

    def make(name):
        def fake():
            calls.append(name)
            return ExperimentReport(name, f"{name} body", {})
        fake.__doc__ = f"Stub for {name}."
        return cli.Entry(fake, no_failed_claims)

    monkeypatch.setattr(cli, "EXPERIMENTS",
                        {name: make(name) for name in EXPERIMENTS})
    yield calls
    runner.set_jobs(1)
    runner.set_schedule("affinity")
    runner.disable_disk_cache()
    runner.disable_run_ledger()
    runner.disable_telemetry()
    runner.clear_cache()
    runner.reset_accounting()


class TestRunCommand:
    def test_run_all_skips_smoke(self, fake_experiments, tmp_path, capsys):
        assert main(["run", "all", "--no-cache",
                     "--history-dir", str(tmp_path)]) == 0
        assert "smoke" not in fake_experiments
        assert set(fake_experiments) == set(EXPERIMENTS) - set(NOT_IN_ALL)
        assert ABLATIONS | {"sweep_scale"} <= set(fake_experiments)
        # Every stub check passes: one "holds" line each, exit 0.
        out = capsys.readouterr().out
        assert all(f"[{name} shape: holds]" in out for name in fake_experiments)

    def test_failing_check_exits_one_naming_the_claim(
            self, fake_experiments, tmp_path, monkeypatch, capsys):
        claim = "fig10: SVM balanced gain 0.9184 <= 0.95"
        monkeypatch.setitem(cli.EXPERIMENTS, "fig10", cli.Entry(
            cli.EXPERIMENTS["fig10"].run, lambda report: [claim]))
        out_dir = tmp_path / "out"
        assert main(["run", "all", "--no-cache", "--out", str(out_dir),
                     "--history-dir", str(tmp_path / "hist")]) == 1
        out = capsys.readouterr().out
        assert f"[fig10 shape: 1 claim(s) failed: {claim}]" in out
        assert "shape check FAILED: 1 claim(s)" in out
        assert out.rstrip().endswith(claim)
        # Every experiment still ran and wrote its table.
        assert set(fake_experiments) == set(EXPERIMENTS) - set(NOT_IN_ALL)
        assert (out_dir / "fig10.txt").exists()

    def test_run_writes_trajectory_record(self, fake_experiments, tmp_path):
        history = tmp_path / "hist"
        assert main(["run", "smoke", "--no-cache",
                     "--history-dir", str(history)]) == 0
        [record] = history.glob("BENCH_*.json")
        payload = json.loads(record.read_text())
        assert payload["schema"] == "repro.bench.trajectory/1"
        assert payload["jobs"] == 1
        assert payload["cache"]["enabled"] is False
        # Trace counters ride along even with --no-cache: re-simulation
        # never needs to re-run the functional workloads.
        assert set(payload["cache"]["traces"]) == {
            "captures", "memo_hits", "disk_hits"}
        assert [e["name"] for e in payload["experiments"]] == ["smoke"]
        assert "sim_ops_per_second" in payload["totals"]
        assert "trace_captures" in payload["totals"]
        # The simulator's speed is perfbench's to measure; the record
        # carries no engine reading.
        assert "engine" not in payload

    def test_run_configures_jobs_and_cache(self, fake_experiments, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["run", "smoke", "--jobs", "3",
                     "--cache-dir", str(cache_dir),
                     "--history-dir", str(tmp_path / "hist")]) == 0
        assert runner.get_jobs() == 3
        cache = runner.disk_cache()
        assert cache is not None
        assert cache.root == cache_dir

    def test_run_out_writes_reports(self, fake_experiments, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "smoke", "--no-cache", "--out", str(out),
                     "--history-dir", str(tmp_path / "hist")]) == 0
        assert "smoke body" in (out / "smoke.txt").read_text()

    def test_run_records_observability_block(self, fake_experiments,
                                             tmp_path):
        history = tmp_path / "hist"
        assert main(["run", "smoke", "--no-cache",
                     "--history-dir", str(history)]) == 0
        [record] = history.glob("BENCH_*.json")
        obs = json.loads(record.read_text())["observability"]
        assert obs["schema"] == "repro.obs.frontier/3"
        assert "simulate_latency_s" in obs
        # Each count is recorded once, in the record's totals.
        assert not {"cache", "traces", "plan_cache",
                    "sim_ops_per_second"} & set(obs)
        # No --events flag: the ledger stayed off and counts are absent.
        assert "events" not in obs

    def test_run_events_writes_default_ledger(self, fake_experiments,
                                              tmp_path):
        history = tmp_path / "hist"
        assert main(["run", "smoke", "--no-cache", "--events",
                     "--history-dir", str(history)]) == 0
        [events_path] = history.glob("EVENTS_*.jsonl")
        [record] = history.glob("BENCH_*.json")
        runid = json.loads(record.read_text())["runid"]
        assert events_path.name == f"EVENTS_{runid}.jsonl"
        head = json.loads(events_path.read_text().splitlines()[0])
        assert head["kind"] == "ledger_start"
        # Stub experiments plan nothing, so counts are empty — but the
        # block must be present whenever the ledger was on.
        assert "events" in json.loads(record.read_text())["observability"]

    def test_run_events_explicit_path(self, fake_experiments, tmp_path):
        target = tmp_path / "ledger.events.jsonl"
        assert main(["run", "smoke", "--no-cache",
                     "--events", str(target),
                     "--history-dir", str(tmp_path / "hist")]) == 0
        assert target.exists()

    def test_run_progress_renders_line(self, fake_experiments, tmp_path,
                                       capsys):
        assert main(["run", "smoke", "--no-cache", "--progress",
                     "--history-dir", str(tmp_path / "hist")]) == 0
        # The stub experiments plan no requests, so the line may be empty;
        # the flag must at least leave the runner with a live ledger.
        assert runner.run_ledger().enabled


class TestSessionsStartClean:
    """Two ``main()`` sessions in one process: the second takes telemetry,
    the run ledger and the dispatch schedule from its own options alone."""

    def test_second_session_inherits_nothing(self, fake_experiments,
                                             tmp_path, monkeypatch, capsys):
        def one_simulation():
            runner.run_request(RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY,
                                                 max_ops_per_thread=50))
            return ExperimentReport("smoke", "body", {})

        monkeypatch.setitem(cli.EXPERIMENTS, "smoke",
                            cli.Entry(one_simulation, no_failed_claims))
        batches = []
        execute_batch = frontier.execute_batch

        def recording(requests, **kwargs):
            batches.append(kwargs)
            return execute_batch(requests, **kwargs)

        monkeypatch.setattr(frontier, "execute_batch", recording)
        telemetry = tmp_path / "tele"
        dirs = ["--cache-dir", str(tmp_path / "cache"),
                "--history-dir", str(tmp_path / "hist")]
        assert main(["run", "smoke", "--no-cache", "--progress",
                     "--telemetry", str(telemetry)] + dirs) == 0
        assert any(telemetry.iterdir())
        assert "[bench]" in capsys.readouterr().out
        runner.set_schedule("fifo")  # as a `sweep --schedule fifo` leaves it
        shutil.rmtree(telemetry)
        runner.clear_cache()

        assert main(["run", "smoke", "--no-cache"] + dirs) == 0
        assert len(batches) == 2
        assert batches[-1]["telemetry_dir"] is None
        assert batches[-1]["schedule"] == "affinity"
        assert not telemetry.exists()
        assert not runner.run_ledger().enabled
        assert "[bench]" not in capsys.readouterr().out


class TestEveryPointCountedOnce:
    """A real ``run smoke`` (6 points): each point is served and counted
    once, so the record, the progress line, ``history`` and the dashboard
    all read 6."""

    @pytest.fixture(autouse=True)
    def small_session(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OPS", "200")
        runner.clear_cache()
        yield
        runner.set_jobs(1)
        runner.disable_disk_cache()
        runner.disable_run_ledger()
        runner.clear_cache()
        runner.reset_accounting()

    @staticmethod
    def counts(history):
        [entry] = load_records(history)[-1][1]["experiments"]
        return {key: entry[key] for key in ("simulations", "memo_hits", "disk_hits")}

    def test_cold_run_simulates_each_point_once(self, tmp_path, capsys):
        from repro.obs.dashboard import collect_sources, render_html

        history = tmp_path / "hist"
        assert main(["run", "smoke", "--no-cache", "--progress",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--history-dir", str(history)]) == 0
        out = capsys.readouterr().out
        assert self.counts(history) == {"simulations": 6, "memo_hits": 0, "disk_hits": 0}
        assert "6 simulated, 0 memo / 0 disk hits]" in out
        last = [part for part in out.split("\r") if part.startswith("[bench]")][-1]
        assert last.split("\n")[0].rstrip() == \
            "[bench] 6/6 done (0 cached, 6 simulated, 0 simulating)"
        assert main(["history", "--history-dir", str(history)]) == 0
        assert "cache: 0% hit rate (0 memo + 0 disk, 6 simulated)" in \
            capsys.readouterr().out
        page = render_html(collect_sources(history))
        assert "<b>6</b><span>requests served</span>" in page

    def test_warm_run_serves_each_point_from_disk_once(self, tmp_path, capsys):
        history = tmp_path / "hist"
        args = ["run", "smoke", "--cache-dir", str(tmp_path / "cache"),
                "--history-dir", str(history)]
        assert main(args) == 0
        runner.clear_cache()  # a new process: the disk cache alone is warm
        assert main(args) == 0
        assert self.counts(history) == {"simulations": 0, "memo_hits": 0, "disk_hits": 6}
        capsys.readouterr()
        assert main(["history", "--history-dir", str(history)]) == 0
        assert "cache: 100% hit rate (0 memo + 6 disk, 0 simulated)" in \
            capsys.readouterr().out


class TestProgressRenderer:
    def make(self):
        import io

        stream = io.StringIO()
        return cli.ProgressRenderer(jobs=2, stream=stream), stream

    def tick(self, renderer, kind, **fields):
        event = {"kind": kind}
        event.update(fields)
        renderer.tick(event)

    def test_counts_and_line(self):
        renderer, stream = self.make()
        self.tick(renderer, "request_planned")
        self.tick(renderer, "request_planned")
        self.tick(renderer, "memo_hit")
        self.tick(renderer, "simulate_start")
        self.tick(renderer, "simulate_end", dur_s=0.4)
        line = stream.getvalue().split("\r")[-1]
        assert "2/2 done" in line
        assert "1 cached" in line
        assert "1 simulated" in line

    def test_eta_uses_mean_duration_over_jobs(self):
        renderer, stream = self.make()
        for _ in range(4):
            self.tick(renderer, "request_planned")
        self.tick(renderer, "simulate_start")
        self.tick(renderer, "simulate_end", dur_s=8.0)
        line = stream.getvalue().split("\r")[-1]
        # 3 remaining * 8 s mean / 2 jobs = 12 s
        assert "eta 12s" in line

    def test_ignores_unrelated_kinds(self):
        renderer, stream = self.make()
        self.tick(renderer, "ledger_start")
        self.tick(renderer, "result_persisted")
        assert stream.getvalue() == ""

    def test_close_terminates_line_once(self):
        renderer, stream = self.make()
        self.tick(renderer, "request_planned")
        renderer.close()
        renderer.close()
        assert stream.getvalue().endswith("\n")
        assert stream.getvalue().count("\n") == 1


class TestHistoryCommand:
    def test_empty_history_fails(self, tmp_path, capsys):
        assert main(["history", "--history-dir", str(tmp_path)]) == 1

    def test_assert_warm_empty_history_fails(self, tmp_path):
        # --assert-warm is an explicit check: absence of records must
        # fail loudly rather than vacuously pass.
        assert main(["history", "--history-dir", str(tmp_path),
                     "--assert-warm"]) == 1

    def test_prints_latest_frontier_and_sweep_blocks(self, tmp_path,
                                                     capsys):
        for runid, hits in (("20260101T000000-1", 1),
                            ("20260102T000000-1", 7)):
            payload = {
                "runid": runid, "jobs": 1,
                "totals": {"simulations": 0, "memo_hits": hits,
                           "disk_hits": 0},
                "observability": {"schema": "repro.obs.frontier/3"},
                "sweep": {"name": f"grid-{hits}", "evaluated": hits,
                          "grid_points": 16}}
            (tmp_path / f"BENCH_{runid}.json").write_text(json.dumps(payload))
        assert main(["history", "--history-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(7 memo + 0 disk, 0 simulated)" in out
        assert "sweep grid-7: 7/16 points" in out
        assert "grid-1" not in out and "(1 memo" not in out

    def test_assert_warm(self, fake_experiments, tmp_path):
        history = tmp_path / "hist"
        args = ["run", "smoke", "--no-cache", "--history-dir", str(history)]
        assert main(args) == 0
        # The stub experiments never simulate, so the record is "warm".
        assert main(["history", "--history-dir", str(history),
                     "--assert-warm"]) == 0

    def test_assert_warm_fails_on_simulations(self, fake_experiments,
                                              tmp_path, monkeypatch):
        history = tmp_path / "hist"
        calls = fake_experiments

        def simulating():
            runner.accounting().simulations += 3
            return ExperimentReport("smoke", "body", {})

        monkeypatch.setitem(cli.EXPERIMENTS, "smoke",
                            cli.Entry(simulating, no_failed_claims))
        assert main(["run", "smoke", "--no-cache",
                     "--history-dir", str(history)]) == 0
        assert main(["history", "--history-dir", str(history),
                     "--assert-warm"]) == 1
        assert calls == []


class TestSweepCommand:
    @pytest.fixture(autouse=True)
    def clean_runner(self):
        runner.clear_cache()
        runner.reset_accounting()
        yield
        runner.set_jobs(1)
        runner.set_schedule("affinity")
        runner.disable_disk_cache()
        runner.clear_cache()
        runner.reset_accounting()

    def test_cold_then_warm_round_trip(self, tmp_path, capsys):
        """The CI smoke contract: a cold sweep simulates, the warm re-run
        replays everything from the content-addressed cache, and
        ``history --assert-warm`` certifies the zero-simulation pass."""
        history = tmp_path / "hist"
        base = ["sweep", "fig8-crossover", "--points", "16",
                "--cache-dir", str(tmp_path / "cache"),
                "--history-dir", str(history)]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "sweep fig8-crossover:" in cold
        assert "throughput" in cold

        # --fresh discards the checkpoint; the disk cache does the warming.
        assert main(base + ["--fresh"]) == 0
        records = sorted(history.glob("BENCH_*.json"))
        assert len(records) == 2
        warm = json.loads(records[-1].read_text())
        assert warm["sweep"]["simulated"] == 0
        # The warm session's record counts only its own work.
        assert warm["totals"]["simulations"] == 0
        assert warm["observability"]["simulate_latency_s"]["count"] == 0
        assert warm["sweep"]["evaluated"] > 0
        assert warm["sweep"]["points_per_second"] > 0
        assert main(["history", "--history-dir", str(history),
                     "--assert-warm"]) == 0
        out = capsys.readouterr().out
        # history prints the latest record's frontier and sweep blocks.
        assert "  cache: " in out
        assert "sweep fig8-crossover:" in out
        assert "assert-warm OK" in out

    def test_sweep_writes_checkpoint_next_to_history(self, tmp_path):
        history = tmp_path / "hist"
        assert main(["sweep", "fig8-crossover", "--points", "16",
                     "--no-cache", "--history-dir", str(history)]) == 0
        assert (history / "SWEEP_fig8-crossover.json").exists()

    def test_unknown_sweep_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "nope", "--history-dir", str(tmp_path)])
