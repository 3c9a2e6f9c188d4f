"""Exit-code contract of ``python -m repro.analysis``.

The CI jobs and Makefile targets key off these codes: 0 = clean,
1 = findings (or surviving mutants), 2 = bad arguments / unreadable
inputs.  Tests drive :func:`repro.analysis.__main__.main` in-process —
same code path as the console, without interpreter-spawn overhead.
"""

import json

import pytest

from repro.analysis.__main__ import main

from .test_flow import write_tree

CLEAN_MODULE = "def add(a, b):\n    return a + b\n"

# SIM004: a mutable default is shared across calls.
LINT_DIRTY_MODULE = (
    "def collect(items=[]):\n"
    "    return items\n"
)

# FLW004 (simflow): ns + GHz has no physical meaning.
FLOW_DIRTY_MODULE = (
    "def mix(t_ns, freq_ghz):\n"
    "    return t_ns + freq_ghz\n"
)

# RCE003 (simflow): a truncating write in a durable-artifact module.
RACE_DIRTY_MODULE = (
    "def save(path, text):\n"
    "    with open(path, 'w') as fh:\n"
    "        fh.write(text)\n"
)


class TestFlowExitCodes:
    #: A tree with exactly one finding, and that finding's code.
    DIRTY_TREE = {"mod.py": FLOW_DIRTY_MODULE}
    CODE = "FLW004"
    #: A code ``--select`` must reject.
    UNKNOWN_CODE = "FLW123"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"mod.py": CLEAN_MODULE})
        assert main(["flow", str(tmp_path), "--no-baseline"]) == 0
        assert "simflow: clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_tree(tmp_path, self.DIRTY_TREE)
        assert main(["flow", str(tmp_path), "--no-baseline"]) == 1
        assert self.CODE in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path):
        assert main(["flow", str(tmp_path / "nope"), "--no-baseline"]) == 2

    def test_unknown_select_code_exits_two(self, tmp_path):
        write_tree(tmp_path, {"mod.py": CLEAN_MODULE})
        assert main(["flow", str(tmp_path), "--no-baseline",
                     "--select", self.UNKNOWN_CODE]) == 2

    def test_missing_baseline_file_exits_two(self, tmp_path):
        write_tree(tmp_path, {"mod.py": CLEAN_MODULE})
        assert main(["flow", str(tmp_path),
                     "--baseline", str(tmp_path / "absent.json")]) == 2

    def test_malformed_baseline_exits_two(self, tmp_path):
        write_tree(tmp_path, {"mod.py": CLEAN_MODULE})
        bad = tmp_path / "bad.json"
        bad.write_text("{\"entries\": 7}", encoding="utf-8")
        assert main(["flow", str(tmp_path), "--baseline", str(bad)]) == 2

    def test_list_rules_exits_zero(self, capsys):
        assert main(["flow", "--list-rules"]) == 0
        assert self.CODE in capsys.readouterr().out

    def test_json_and_sarif_are_written(self, tmp_path):
        write_tree(tmp_path, self.DIRTY_TREE)
        out_json = tmp_path / "report.json"
        out_sarif = tmp_path / "report.sarif"
        assert main(["flow", str(tmp_path), "--no-baseline",
                     "--json", str(out_json),
                     "--sarif", str(out_sarif)]) == 1
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert [f["code"] for f in payload["findings"]] == [self.CODE]
        sarif = json.loads(out_sarif.read_text(encoding="utf-8"))
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == [self.CODE]
        # One driver carries every catalogue.
        rules = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert {"SIM001", "FLW001", "RCE001", "FLW000"} <= rules


class TestLintExitCodes(TestFlowExitCodes):
    """The same contract on a SIM finding: the SIM rules run in ``flow``
    (there is no ``lint`` command), and the retired ``SIM999`` syntax code
    is no rule."""

    DIRTY_TREE = {"mod.py": LINT_DIRTY_MODULE}
    CODE = "SIM004"
    UNKNOWN_CODE = "SIM999"

    def test_lint_command_is_retired(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(tmp_path)])
        assert exc.value.code == 2


class TestRaceExitCodes(TestFlowExitCodes):
    """The same contract on an RCE finding: one ``flow`` CLI serves both
    catalogues, and the retired ``RCE000`` hygiene code is no rule."""

    DIRTY_TREE = {"bench/mod.py": RACE_DIRTY_MODULE}
    CODE = "RCE003"
    UNKNOWN_CODE = "RCE000"


class TestBaselineRoundTripViaCli:
    """--update-baseline then a rerun must accept the same tree as clean."""

    DIRTY_TREE = {"mod.py": FLOW_DIRTY_MODULE}

    def test_update_then_rerun_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, self.DIRTY_TREE)
        baseline = tmp_path / "baseline.json"
        assert main(["flow", str(tmp_path), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["flow", str(tmp_path),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_update_baseline_without_path_exits_two(self, tmp_path):
        write_tree(tmp_path, {"mod.py": CLEAN_MODULE})
        assert main(["flow", str(tmp_path), "--no-baseline",
                     "--update-baseline"]) == 2


class TestRaceBaselineRoundTripViaCli(TestBaselineRoundTripViaCli):
    """RCE findings round-trip through the same baseline file."""

    DIRTY_TREE = {"bench/mod.py": RACE_DIRTY_MODULE}


class TestFlowMutantsExitCodes:
    def test_missing_path_exits_two(self, tmp_path):
        assert main(["flow-mutants", str(tmp_path / "nope")]) == 2

    def test_drifted_anchor_exits_two(self, tmp_path):
        # A tree without the mutants' anchor lines must refuse to run
        # (a gauntlet that silently tests nothing would be worse than
        # none), not report a vacuous pass.
        write_tree(tmp_path, {"mod.py": CLEAN_MODULE})
        assert main(["flow-mutants", str(tmp_path), "--no-baseline"]) == 2


class TestRunSetUsage:
    """``sanitize`` and ``determinism`` reject a bad ``-w``/``-p`` name
    before they simulate anything."""

    @pytest.fixture
    def no_runs(self, monkeypatch):
        from repro.system.system import System

        def refuse(*args, **kwargs):
            raise AssertionError("a run started before the usage error")
        monkeypatch.setattr(System, "run", refuse)

    @pytest.mark.parametrize("argv", [
        ["sanitize", "-w", "PR", "-w", "BOGUS"],
        ["sanitize", "-p", "locality-aware", "-p", "bogus"],
        ["determinism", "-w", "PR", "-w", "BOGUS"],
        ["determinism", "-p", "locality-aware", "-p", "bogus"],
    ])
    def test_usage_error_comes_before_any_run(self, no_runs, argv, capsys):
        assert main(argv + ["--size", "small", "--ops", "10"]) == 2
        assert "bogus" in capsys.readouterr().err.lower()
