"""simflow's RCE families: worker slice, passes, waivers, mutants.

Pass-behavior tests build small synthetic trees in ``tmp_path`` (the
durable and ordering rules key off ``bench/``/``obs/`` path segments and
the worker rules off pool-construction shapes, all of which a synthetic
tree can provide) and run every simflow rule over them, so an FLW finding
on a race fixture would show too.  Cleanliness and end-to-end mutant
tests run against the real ``src/repro`` tree — the frontier these rules
exist to guard.
"""

from pathlib import Path

import pytest

from repro.analysis.flow import FLOW_CODES, run_flow, run_mutants
from repro.analysis.flow.engine import HYGIENE_CODE
from repro.analysis.race import RACE_MUTANTS
from repro.analysis.race.worker import build_context
from repro.analysis.flow.model import ProjectModel
from repro.analysis.source import parse_project

RACE_CODES = sorted(code for code in FLOW_CODES if code.startswith("RCE"))

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_tree(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tmp_path


def codes_of(report):
    return sorted(f.code for f in report.findings)


# ----------------------------------------------------------------------
# Real tree: the frontier this analyzer exists to guard
# ----------------------------------------------------------------------


class TestRealTree:
    def test_tree_is_clean_without_baseline(self):
        # The RCE waivers count as stale unless each still suppresses one.
        report = run_flow([REPO_SRC], select=RACE_CODES)
        assert report.findings == [], "\n".join(map(str, report.findings))

    def test_worker_slice_is_rooted_at_the_payload_executor(self):
        project, _ = parse_project([REPO_SRC])
        ctx = build_context(ProjectModel(project))
        assert any(q.endswith(":_execute_payload") for q in ctx.entries)
        # The slice reaches the simulation core the workers actually run.
        assert any("system/system.py" in q for q in ctx.worker_slice)

    def test_settings_env_vars_are_pinned(self):
        project, _ = parse_project([REPO_SRC])
        ctx = build_context(ProjectModel(project))
        assert "REPRO_BENCH_SEED" in ctx.pinned


# ----------------------------------------------------------------------
# RCE003: durable-write discipline
# ----------------------------------------------------------------------


class TestDurablePass:
    def test_truncating_open_fires(self, tmp_path):
        write_tree(tmp_path, {"bench/writer.py": (
            "def save(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n"
        )})
        assert "RCE003" in codes_of(run_flow([tmp_path]))

    def test_write_text_fires(self, tmp_path):
        write_tree(tmp_path, {"obs/export.py": (
            "def save(path, text):\n"
            "    path.write_text(text)\n"
        )})
        assert "RCE003" in codes_of(run_flow([tmp_path]))

    def test_reads_and_non_durable_modules_are_clean(self, tmp_path):
        write_tree(tmp_path, {
            "bench/reader.py": (
                "def load(path):\n"
                "    with open(path) as fh:\n"
                "        return fh.read()\n"),
            "tools/scratch.py": (
                "def save(path, text):\n"
                "    with open(path, 'w') as fh:\n"
                "        fh.write(text)\n"),
        })
        assert codes_of(run_flow([tmp_path])) == []

    def test_sanctioned_fsio_defs_are_exempt(self, tmp_path):
        write_tree(tmp_path, {"obs/fsio.py": (
            "def atomic_write_text(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n"
        )})
        assert codes_of(run_flow([tmp_path])) == []


# ----------------------------------------------------------------------
# RCE005-RCE007: fork/worker hygiene
# ----------------------------------------------------------------------


class TestWorkerPass:
    def test_worker_global_mutation_fires(self, tmp_path):
        write_tree(tmp_path, {"bench/run.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_STATS = {}\n"
            "\n"
            "def _work(payload):\n"
            "    _STATS['runs'] = _STATS.get('runs', 0) + 1\n"
            "    return payload\n"
            "\n"
            "def batch(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        for item in items:\n"
            "            pool.submit(_work, item)\n"
        )})
        assert "RCE005" in codes_of(run_flow([tmp_path]))

    def test_parent_side_global_mutation_is_clean(self, tmp_path):
        # Same mutation, but nothing submits the function to a pool.
        write_tree(tmp_path, {"bench/run.py": (
            "_STATS = {}\n"
            "\n"
            "def count(payload):\n"
            "    _STATS['runs'] = _STATS.get('runs', 0) + 1\n"
            "    return payload\n"
        )})
        assert codes_of(run_flow([tmp_path])) == []

    def test_unpinned_env_read_fires_and_pinned_is_clean(self, tmp_path):
        write_tree(tmp_path, {"bench/run.py": (
            "import os\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "\n"
            "class BenchSettings:\n"
            "    seed_env = 'REPRO_BENCH_SEED'\n"
            "\n"
            "def _work(payload):\n"
            "    os.environ.get('REPRO_BENCH_SEED')\n"  # pinned: clean
            "    os.environ.get('REPRO_SECRET_KNOB')\n"  # RCE006
            "    return payload\n"
            "\n"
            "def batch(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        for item in items:\n"
            "            pool.submit(_work, item)\n"
        )})
        assert codes_of(run_flow([tmp_path])) == ["RCE006"]

    def test_global_rng_fires_tree_wide(self, tmp_path):
        write_tree(tmp_path, {"workloads/gen.py": (
            "import random\n"
            "\n"
            "def jitter():\n"
            "    return random.random()\n"
        )})
        assert "RCE007" in codes_of(run_flow([tmp_path]))

    def test_seeded_generator_calls_are_clean(self, tmp_path):
        write_tree(tmp_path, {"workloads/gen.py": (
            "def sample(rng):\n"
            "    return rng.random()\n"
        )})
        assert codes_of(run_flow([tmp_path])) == []

    def test_np_default_rng_fires(self, tmp_path):
        write_tree(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )})
        assert codes_of(run_flow([tmp_path])) == ["RCE007"]

    def test_rng_module_itself_is_exempt(self, tmp_path):
        write_tree(tmp_path, {"util/rng.py": (
            "import numpy as np\n"
            "\n"
            "def make_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )})
        assert codes_of(run_flow([tmp_path])) == []


# ----------------------------------------------------------------------
# RCE009: set-order soundness
# ----------------------------------------------------------------------


class TestOrderingPass:
    def test_set_iteration_into_output_fires(self, tmp_path):
        write_tree(tmp_path, {"bench/report.py": (
            "def delta(before, after):\n"
            "    entry = {}\n"
            "    for key in set(before) | set(after):\n"
            "        entry[key] = after.get(key, 0) - before.get(key, 0)\n"
            "    return entry\n"
        )})
        assert "RCE009" in codes_of(run_flow([tmp_path]))

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        write_tree(tmp_path, {"bench/report.py": (
            "def delta(before, after):\n"
            "    entry = {}\n"
            "    for key in sorted(set(before) | set(after)):\n"
            "        entry[key] = after.get(key, 0) - before.get(key, 0)\n"
            "    return entry\n"
        )})
        assert codes_of(run_flow([tmp_path])) == []

    def test_select_filters_passes(self, tmp_path):
        write_tree(tmp_path, {"bench/report.py": (
            "def delta(before, after):\n"
            "    entry = {}\n"
            "    for key in set(before) | set(after):\n"
            "        entry[key] = after.get(key, 0)\n"
            "    return entry\n"
            "\n"
            "def save(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n"
        )})
        assert codes_of(run_flow([tmp_path])) == ["RCE003", "RCE009"]
        only = run_flow([tmp_path], select=["RCE009"])
        assert codes_of(only) == ["RCE009"]


# ----------------------------------------------------------------------
# Waivers
# ----------------------------------------------------------------------


class TestRaceWaivers:
    def test_justified_waiver_suppresses(self, tmp_path):
        write_tree(tmp_path, {"workloads/gen.py": (
            "import random\n"
            "\n"
            "def jitter():\n"
            "    return random.random()  "
            "# simflow: ignore[RCE007] -- test-only jitter\n"
        )})
        assert codes_of(run_flow([tmp_path])) == []

    def test_unjustified_waiver_reports_hygiene(self, tmp_path):
        write_tree(tmp_path, {"workloads/gen.py": (
            "import random\n"
            "\n"
            "def jitter():\n"
            "    return random.random()  # simflow: ignore[RCE007]\n"
        )})
        # Unjustified pragmas do not suppress: both hygiene and the
        # original finding report.
        assert codes_of(run_flow([tmp_path])) == [HYGIENE_CODE, "RCE007"]

    def test_simrace_namespace_is_retired(self, tmp_path):
        write_tree(tmp_path, {"workloads/gen.py": (
            "import random\n"
            "\n"
            "def jitter():\n"
            "    return random.random()  "
            "# simrace: ignore[RCE007] -- retired namespace\n"
        )})
        assert codes_of(run_flow([tmp_path])) == ["RCE007"]


# ----------------------------------------------------------------------
# Mutants: the catalogue itself
# ----------------------------------------------------------------------


class TestMutants:
    def test_catalogue_covers_every_rule(self):
        assert sorted({m.code for m in RACE_MUTANTS}) == RACE_CODES

    def test_worker_mutant_is_killed(self, tmp_path):
        """One end-to-end kill (the full gauntlet is `make flow-mutants`)."""
        subset = [m for m in RACE_MUTANTS
                  if m.name == "worker-mutates-module-state"]
        results, pristine = run_mutants([REPO_SRC], mutants=subset)
        assert pristine.findings == []
        assert results[0].killed

    def test_drifted_anchor_fails_loudly(self, tmp_path):
        from repro.analysis.mutation import Mutant
        bogus = Mutant(name="bogus", code="RCE005", description="",
                       edits=(("bench/frontier.py", "NO SUCH ANCHOR", "x"),))
        with pytest.raises(ValueError):
            run_mutants([REPO_SRC], mutants=[bogus])
