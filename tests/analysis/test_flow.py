"""simflow: project model, flow passes, waivers, baseline, mutants.

Pass-behavior tests build small synthetic trees in ``tmp_path`` (the
purity pass keys off the ``system/system.py:System._run_trace`` and
``system/columnar.py:_replay_loop`` anchors, which a synthetic tree can
provide under the same relative paths).
Model-precision and cleanliness tests run against the real ``src/repro``
tree — the analyzer's reason to exist is that tree, and its call-graph
precision claims (the hot set excludes the functional/bench world) are
only meaningful there.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.flow import (
    FLOW_CODES,
    MUTANTS,
    load_baseline,
    run_flow,
    run_mutants,
    write_baseline,
)
from repro.analysis.flow.engine import HYGIENE_CODE
from repro.analysis.flow.model import ProjectModel
from repro.analysis.flow.purity import ENGINE_FUNCTIONS, hot_set
from repro.analysis.source import parse_project, parse_waivers

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path


PURITY_TREE = {
    "system/system.py": (
        "class System:\n"                       # 1
        "    def _run_trace(self):\n"           # 2
        "        while True:\n"                 # 3
        "            self.step()\n"             # 4
        "        self._collect()\n"             # 5
        "\n"                                    # 6
        "    def step(self):\n"                 # 7
        "        waiting = {1, 2}\n"            # 8  FLW008 (set display)
        "        for item in waiting:\n"        # 9  FLW007 (set iteration)
        "            pass\n"                    # 10
        "        self.stats.add('x', 1.0)\n"    # 11 FLW009
        "\n"
        "    def _collect(self):\n"
        "        summary = {}\n"
        "        return summary\n"
    ),
}


def engine_tree(step_body):
    """A replay loop whose one callee, ``System.step``, runs ``step_body``."""
    return {"system/system.py": (
        "class System:\n"
        "    def _run_trace(self):\n"
        "        while True:\n"
        "            self.step()\n"
        "\n"
        "    def step(self):\n" + step_body)}


def codes_of(report):
    return sorted(f.code for f in report.findings)


# ----------------------------------------------------------------------
# Real tree: cleanliness and call-graph precision
# ----------------------------------------------------------------------


class TestRealTree:
    @pytest.fixture(scope="class")
    def model(self):
        project, errors = parse_project([REPO_SRC])
        assert not errors
        return ProjectModel(project)

    def test_tree_is_clean_without_baseline(self):
        report = run_flow([REPO_SRC])
        assert report.findings == []

    def test_hot_set_contains_the_engine_callees(self, model):
        hot = hot_set(model)
        assert "core/executor.py:PeiExecutor.execute" in hot
        assert "cpu/core.py:CoreModel.do_load" in hot
        assert "cache/hierarchy.py:CacheHierarchy.flush_block" in hot

    def test_hot_set_excludes_functional_and_bench_world(self, model):
        """The precision claim: replay never re-runs workload generation,
        the bench runner, or the golden model."""
        hot = hot_set(model)
        leaked = sorted(q for q in hot if q.startswith(
            ("workloads/", "bench/", "verify/")))
        assert leaked == []

    def test_replay_loops_bind_the_executor_fence(self, model):
        """Both loops bind ``fence = executor.fence``; typed, it resolves
        to the executor alone — not to every ``fence`` in the tree (the
        golden model's, the telemetry sink's)."""
        for engine in ENGINE_FUNCTIONS:
            targets = model.loop_call_targets(model.find_function(engine))
            fences = sorted(t for t in targets if t.endswith(".fence"))
            assert fences == ["core/executor.py:PeiExecutor.fence"]

    def test_type_inference_resolves_the_engine_dispatch(self, model):
        assert model.return_types.get("build_machine") == "Machine"
        assert model.attr_types.get(("Machine", "executor")) == "PeiExecutor"
        assert model.attr_types.get(("Workload", "space")) == "AddressSpace"


# ----------------------------------------------------------------------
# Unit/dimension taint (FLW004-FLW006) on a synthetic tree
# ----------------------------------------------------------------------


class TestUnitsPass:
    def test_cross_dimension_add_fires(self, tmp_path):
        write_tree(tmp_path, {"mod.py": (
            "def mix(t_ns, freq_ghz):\n"
            "    return t_ns + freq_ghz\n")})
        assert codes_of(run_flow([tmp_path])) == ["FLW004"]

    def test_sanctioned_conversion_is_clean(self, tmp_path):
        write_tree(tmp_path, {"mod.py": (
            "def convert(t_ns, freq_ghz):\n"
            "    return t_ns * freq_ghz\n")})
        assert codes_of(run_flow([tmp_path])) == []

    def test_cross_dimension_compare_fires(self, tmp_path):
        write_tree(tmp_path, {"mod.py": (
            "def check(budget_cycles, freq_ghz):\n"
            "    return budget_cycles > freq_ghz\n")})
        assert codes_of(run_flow([tmp_path])) == ["FLW005"]

    def test_mis_suffixed_assignment_fires(self, tmp_path):
        write_tree(tmp_path, {"mod.py": (
            "def mislabel(delay_ns):\n"
            "    total_cycles = delay_ns\n"
            "    return total_cycles\n")})
        assert codes_of(run_flow([tmp_path])) == ["FLW006"]

    def test_flow_is_tracked_through_locals(self, tmp_path):
        """The flow-sensitive part: the dimension rides the assignment."""
        write_tree(tmp_path, {"mod.py": (
            "def relay(t_ns, freq_ghz):\n"
            "    elapsed = t_ns\n"
            "    return elapsed + freq_ghz\n")})
        assert codes_of(run_flow([tmp_path])) == ["FLW004"]


# ----------------------------------------------------------------------
# Hot-path purity (FLW007-FLW009) on a synthetic tree
# ----------------------------------------------------------------------


class TestPurityPass:
    def test_loop_reachable_impurities_fire(self, tmp_path):
        write_tree(tmp_path, PURITY_TREE)
        assert codes_of(run_flow([tmp_path])) == [
            "FLW007", "FLW008", "FLW009"]

    def test_once_per_run_work_is_not_hot(self, tmp_path):
        """_collect sits outside every while loop: its dict display is
        outside the hot set even though _run_trace calls it."""
        write_tree(tmp_path, PURITY_TREE)
        report = run_flow([tmp_path], select=["FLW008"])
        assert [f.line for f in report.findings] == [8]  # the set display only

    def test_no_engine_anchor_means_no_hot_set(self, tmp_path):
        write_tree(tmp_path, {"mod.py": (
            "def helper():\n"
            "    return [1, 2]\n")})
        assert codes_of(run_flow([tmp_path])) == []

    def test_select_filters_passes(self, tmp_path):
        write_tree(tmp_path, PURITY_TREE)
        report = run_flow([tmp_path], select=["FLW009"])
        assert codes_of(report) == ["FLW009"]

    def test_engine_loop_statements_are_checked(self, tmp_path):
        """The loop body itself is per-op code, not only its callees."""
        write_tree(tmp_path, {"system/system.py": (
            "class System:\n"
            "    def _run_trace(self):\n"
            "        machine = self.machine\n"
            "        while True:\n"
            "            machine.stats.add('x', 1.0)\n"  # 5 FLW009
            "            pending = []\n"                 # 6 FLW008
            "        summary = {}\n"                     # once per run
            "        return summary\n")})
        report = run_flow([tmp_path])
        assert [(f.code, f.line) for f in report.findings] == [
            ("FLW009", 5), ("FLW008", 6)]

    def test_columnar_replay_loop_roots_the_hot_set(self, tmp_path):
        write_tree(tmp_path, {"system/columnar.py": (
            "def _replay_loop(system, trace):\n"
            "    while True:\n"
            "        _flush(system.stats)\n"
            "\n"
            "def _flush(stats):\n"
            "    stats.add('x', 1.0)\n")})
        report = run_flow([tmp_path])
        assert [(f.code, f.line) for f in report.findings] == [("FLW009", 6)]

    def test_bare_stats_name_fires(self, tmp_path):
        write_tree(tmp_path, {"system/system.py": (
            "def tick(stats):\n"
            "    stats.add('x', 2.0)\n"
            "\n"
            "class System:\n"
            "    def _run_trace(self):\n"
            "        while True:\n"
            "            tick(self.stats)\n")})
        assert codes_of(run_flow([tmp_path])) == ["FLW009"]

    def test_stats_set_is_fine(self, tmp_path):
        # One-shot summary writes are not per-event cost.
        write_tree(tmp_path, engine_tree(
            "        self.stats.set('run.cycles', 1.0)\n"))
        assert codes_of(run_flow([tmp_path])) == []

    def test_slot_fast_path_is_fine(self, tmp_path):
        write_tree(tmp_path, engine_tree(
            "        self._slots[KEY] += 1.0\n"))
        assert codes_of(run_flow([tmp_path])) == []


# ----------------------------------------------------------------------
# Waivers: justification, spans, multi-line pragma comments
# ----------------------------------------------------------------------


class TestFlowWaivers:
    def test_justified_waiver_suppresses(self, tmp_path):
        tree = dict(PURITY_TREE)
        tree["system/system.py"] = tree["system/system.py"].replace(
            "        waiting = {1, 2}\n",
            "        waiting = {1, 2}  # simflow: ignore[FLW008] -- reuse\n")
        write_tree(tmp_path, tree)
        assert codes_of(run_flow([tmp_path])) == ["FLW007", "FLW009"]

    def test_unjustified_waiver_reports_hygiene(self, tmp_path):
        tree = dict(PURITY_TREE)
        tree["system/system.py"] = tree["system/system.py"].replace(
            "        waiting = {1, 2}\n",
            "        waiting = {1, 2}  # simflow: ignore[FLW008]\n")
        write_tree(tmp_path, tree)
        assert HYGIENE_CODE in codes_of(run_flow([tmp_path]))

    def test_own_line_pragma_skips_continuation_comments(self, tmp_path):
        """A justification that wraps onto following comment lines still
        targets the next *code* line (the real-tree waivers are written
        this way)."""
        tree = dict(PURITY_TREE)
        tree["system/system.py"] = tree["system/system.py"].replace(
            "        waiting = {1, 2}\n",
            "        # simflow: ignore[FLW008] -- justification that\n"
            "        # wraps onto a second comment line\n"
            "        waiting = {1, 2}\n")
        write_tree(tmp_path, tree)
        assert codes_of(run_flow([tmp_path])) == ["FLW007", "FLW009"]

    def test_simlint_namespace_does_not_silence_flow(self, tmp_path):
        """`# simflow:` is the one waiver namespace; a retired `# simlint:`
        pragma is a plain comment."""
        tree = dict(PURITY_TREE)
        tree["system/system.py"] = tree["system/system.py"].replace(
            "        waiting = {1, 2}\n",
            "        waiting = {1, 2}  # simlint: ignore[FLW008] -- wrong\n")
        write_tree(tmp_path, tree)
        assert "FLW008" in codes_of(run_flow([tmp_path]))


class TestWaiverSpans:
    """Statement-span matching regressions (shared source model)."""

    def test_own_line_pragma_targets_next_code_line(self):
        waivers = parse_waivers(
            "# simflow: ignore[SIM001] -- reason\n"
            "# continuation comment\n"
            "\n"
            "x = 1\n")
        assert [w.line for w in waivers] == [4]

    def test_trailing_pragma_targets_its_own_line(self):
        waivers = parse_waivers("x = 1  # simflow: ignore[SIM001] -- r\n")
        assert [w.line for w in waivers] == [1]

    def test_pragma_inside_multiline_call_suppresses_first_line(self, tmp_path):
        """The finding reports at the call's first line; a pragma on a later
        physical line of the same statement must still match."""
        write_tree(tmp_path, {"system/system.py": (
            "class System:\n"
            "    def _run_trace(self):\n"
            "        while True:\n"
            "            self.step()\n"
            "\n"
            "    def step(self):\n"
            "        self.stats.add(\n"
            "            'x',  # simflow: ignore[FLW009] -- span test\n"
            "            1.0)\n")})
        assert codes_of(run_flow([tmp_path])) == []

    def test_pragma_on_decorator_suppresses_def_line_finding(self, tmp_path):
        """SIM004 reports at the default on the def line; the decorator
        belongs to the same statement span."""
        target = tmp_path / "mod.py"
        target.write_text(
            "import functools\n"
            "\n"
            "@functools.lru_cache  # simflow: ignore[SIM004] -- span test\n"
            "def f(xs=[]):\n"
            "    return xs\n",
            encoding="utf-8")
        assert codes_of(run_flow([tmp_path])) == []


# ----------------------------------------------------------------------
# Baseline: round-trip, suppression counting, stale entries
# ----------------------------------------------------------------------


class TestBaseline:
    def test_round_trip_suppresses_and_counts(self, tmp_path):
        root = write_tree(tmp_path / "tree", PURITY_TREE)
        baseline = tmp_path / "flow-baseline.json"
        dirty = run_flow([root])
        assert len(dirty.findings) == 3
        write_baseline(baseline, dirty.findings)
        assert len(load_baseline(baseline)) == 3
        clean = run_flow([root], baseline=baseline)
        assert clean.findings == []
        assert clean.baselined == 3

    def test_stale_entry_reports_hygiene(self, tmp_path):
        root = write_tree(tmp_path / "tree", PURITY_TREE)
        baseline = tmp_path / "flow-baseline.json"
        write_baseline(baseline, run_flow([root]).findings)
        # Fix one defect: the matching entry goes stale and must surface.
        fixed = PURITY_TREE["system/system.py"].replace(
            "        self.stats.add('x', 1.0)\n", "        pass\n")
        (root / "system/system.py").write_text(fixed, encoding="utf-8")
        report = run_flow([root], baseline=baseline)
        assert codes_of(report) == [HYGIENE_CODE]
        assert "stale baseline entry" in report.findings[0].message

    def test_malformed_entry_rejected(self, tmp_path):
        baseline = tmp_path / "flow-baseline.json"
        baseline.write_text(json.dumps(
            {"entries": [{"code": "FLW008"}]}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(baseline)

    def test_checked_in_baseline_is_loadable(self):
        checked_in = REPO_SRC.parents[1] / "flow-baseline.json"
        assert checked_in.exists()
        load_baseline(checked_in)  # must not raise


# ----------------------------------------------------------------------
# Mutants: the catalogue itself
# ----------------------------------------------------------------------


class TestMutants:
    def test_catalogue_covers_every_rule(self):
        assert {m.code for m in MUTANTS} == set(FLOW_CODES)

    def test_fingerprint_mutant_is_killed(self, tmp_path):
        """One end-to-end kill (the full gauntlet is `make flow-mutants`)."""
        subset = [m for m in MUTANTS
                  if m.name == "fingerprint-enumerates-subset"]
        results, pristine = run_mutants([REPO_SRC], mutants=subset)
        assert pristine.findings == []
        assert results[0].killed

    def test_drifted_anchor_fails_loudly(self, tmp_path):
        from repro.analysis.flow.mutants import Mutant
        bogus = Mutant(name="bogus", code="FLW001", description="",
                       edits=(("system/config.py", "NO SUCH ANCHOR", "x"),))
        with pytest.raises(ValueError):
            run_mutants([REPO_SRC], mutants=[bogus])

    def test_drifted_last_anchor_fails_before_any_run(self):
        """Every anchor is checked up front, so a drifted one at the end
        of the catalogue costs no analyzer run."""
        from dataclasses import replace

        from repro.analysis.mutation import run_seeded_mutants
        rel, _, new = MUTANTS[-1].edits[0]
        drifted = replace(MUTANTS[-1], edits=((rel, "NO SUCH ANCHOR", new),))
        calls = []

        def counting_run(paths, **kwargs):
            calls.append(kwargs)
            return run_flow(paths, **kwargs)

        with pytest.raises(ValueError, match="anchor not found"):
            run_seeded_mutants(counting_run, [REPO_SRC],
                               list(MUTANTS[:-1]) + [drifted])
        assert calls == []
