"""Self-validation: every seeded protocol defect must be killed.

This is the acceptance criterion for the checker itself — a harness that
cannot detect a dropped handoff penalty or a skipped back-invalidation
would pass silently on a broken simulator too.  Each mutant is a one-line
edit of the simulator's own source that ``seeded`` swaps in for one sweep.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.mutation import Mutant, seeded
from repro.core import pim_directory
from repro.core.pim_directory import PimDirectory
from repro.core.pmu import Pmu
from repro.verify.coherence import run_coherence
from repro.verify.explorer import explore
from repro.verify.mutants import (
    DIRECTORY_MUTANTS,
    GAUNTLET,
    MACHINE_MUTANTS,
    check_mutant,
    kill_bounds,
    kill_coherence_bounds,
    run_mutants,
)

#: Every code each mutant's sweep reports, its own code among them.
KILL_CODES = {
    "drop-handoff": ["VER007"],
    "writer-release-as-reader": ["SAN002", "VER007"],
    "reader-ignores-writer": ["SAN002", "VER007"],
    "writer-ignores-readers": ["SAN002", "VER007"],
    "fence-ignores-writers": ["SAN005", "VER007"],
    "release-skips-fence-horizon": ["SAN005", "VER007"],
    "unstable-index": ["VER007"],
    "skip-back-invalidation": ["VER009", "VER013"],
    "writeback-instead-of-invalidate": ["VER010", "VER013"],
}

CASES = [pytest.param(mutant, judge, id=mutant.name)
         for catalogue, judge in GAUNTLET for mutant in catalogue]
ALL_MUTANTS = DIRECTORY_MUTANTS + MACHINE_MUTANTS


def _class_dicts():
    return {cls: dict(vars(cls)) for cls in (PimDirectory, Pmu)}


def _assert_restored(before):
    for cls, attrs in _class_dicts().items():
        assert attrs.keys() == before[cls].keys(), cls
        for name, value in before[cls].items():
            assert attrs[name] is value, f"{cls.__name__}.{name}"


def _never_judged():
    raise AssertionError("a checker ran before the seeding failed")


class TestCatalogue:
    def test_at_least_five_mutants(self):
        assert len(ALL_MUTANTS) >= 5

    def test_names_are_unique_and_described(self):
        names = [mutant.name for mutant in ALL_MUTANTS]
        assert len(names) == len(set(names))
        for mutant in ALL_MUTANTS:
            assert mutant.description

    def test_catalogue_covers_both_layers(self):
        # Directory-timing defects and machine-level coherence defects.
        assert DIRECTORY_MUTANTS
        assert MACHINE_MUTANTS

    def test_every_mutant_edits_the_simulator_once(self):
        for mutant in ALL_MUTANTS:
            (rel, old, new), = mutant.edits
            assert rel in ("core/pim_directory.py", "core/pmu.py")
            assert old.count("\n") == new.count("\n")


class TestSeeded:
    @pytest.mark.parametrize("mutant", ALL_MUTANTS, ids=lambda m: m.name)
    def test_swaps_one_method_and_restores_it(self, mutant):
        before = _class_dicts()
        with seeded(mutant):
            during = _class_dicts()
            changed = [(cls.__name__, name)
                       for cls, attrs in before.items()
                       for name, value in attrs.items()
                       if during[cls][name] is not value]
        assert len(changed) == 1, changed
        _assert_restored(before)

    def test_exception_inside_the_block_restores(self):
        before = _class_dicts()
        with pytest.raises(RuntimeError):
            with seeded(DIRECTORY_MUTANTS[0]):
                raise RuntimeError("checker crashed")
        _assert_restored(before)

    def test_drifted_anchor_raises_before_any_checker(self):
        rel, _, new = DIRECTORY_MUTANTS[0].edits[0]
        drifted = replace(DIRECTORY_MUTANTS[0],
                          edits=((rel, "NO SUCH ANCHOR", new),))
        before = _class_dicts()
        with pytest.raises(ValueError, match="anchor not found"):
            check_mutant(drifted, _never_judged)
        _assert_restored(before)

    def test_comment_only_edit_raises_before_any_checker(self):
        source = Path(pim_directory.__file__).read_text(encoding="utf-8")
        comment = next(line for line in source.splitlines(True)
                       if line.strip().startswith("#")
                       and source.count(line) == 1)
        cosmetic = Mutant("comment-only", "VER007", "rewords a comment",
                          (("core/pim_directory.py", comment,
                            comment.replace("#", "# reworded:", 1)),))
        before = _class_dicts()
        with pytest.raises(ValueError, match="change no method"):
            check_mutant(cosmetic, _never_judged)
        _assert_restored(before)

    def test_line_shifting_edit_swaps_only_its_method(self):
        # Methods below a line-adding edit move but keep their code.
        anchor = "                self._fence_horizon = completion\n"
        longer = Mutant("longer-release", "VER007", "adds a line",
                        (("core/pim_directory.py", anchor,
                          anchor + "                completion += 0.0\n"),))
        before = _class_dicts()
        with seeded(longer):
            assert [name for name, value in before[PimDirectory].items()
                    if vars(PimDirectory)[name] is not value] == ["release"]
        _assert_restored(before)

    def test_swap_reaches_live_objects(self):
        # A directory built before the block runs the mutated acquire, and
        # a module-level name in the edit resolves to the live class, not
        # to the scratch namespace's copy of it.
        live = Mutant("live-globals", "VER007", "drops the handoff",
                      (("core/pim_directory.py",
                        "grant = busy_until + self.handoff_penalty",
                        "grant = busy_until + (0.0 if type(self) is "
                        "PimDirectory else 1e9)"),))
        directory = PimDirectory(entries=4, latency=2.0, handoff_penalty=10.0)
        entry, _ = directory.acquire(5, True, 0.0)
        directory.release(entry, True, 50.0)
        with seeded(live):
            assert directory.acquire(5, True, 0.0) == (entry, 50.0)
        assert directory.acquire(5, True, 0.0) == (entry, 60.0)


class TestKills:
    @pytest.mark.parametrize("mutant, judge", CASES)
    def test_killed_by_its_own_code(self, mutant, judge):
        result = check_mutant(mutant, judge)
        assert result.killed, result
        assert mutant.code in result.new_findings
        assert result.new_findings == KILL_CODES[mutant.name]
        # The block restored the simulator: both sweeps are clean again.
        assert explore(kill_bounds()).ok
        assert run_coherence(kill_coherence_bounds()).ok

    def test_other_codes_do_not_kill(self):
        # The kill rule is simflow's: only the mutant's own code counts.
        mutant, judge = CASES[0].values
        wrong = replace(mutant, code="SAN001")
        result = check_mutant(wrong, judge)
        assert result.new_findings == KILL_CODES[mutant.name]
        assert not result.killed

    def test_every_mutant_is_killed(self):
        results = run_mutants()
        assert [result.mutant for result in results] == list(ALL_MUTANTS)
        assert all(result.killed for result in results)

    def test_reader_ignoring_writer_is_judged_by_simsan(self):
        # The explorer's per-block exclusion verdict is simsan's SAN002;
        # the retired VER001-VER006 restatements no longer exist.
        mutant = next(m for m in DIRECTORY_MUTANTS
                      if m.name == "reader-ignores-writer")
        with seeded(mutant):
            report = explore(kill_bounds())
        assert "SAN002" in report.by_code
        retired = {f"VER00{n}" for n in range(1, 7)}
        assert not retired & set(report.by_code), report.summary()


class TestBaselineStillClean:
    def test_unmutated_simulator_passes_kill_bounds(self):
        # The mutant harness's own bounds must be green on the real code,
        # or a kill would be indistinguishable from a flaky bound.
        assert explore(kill_bounds()).ok
        assert run_coherence(kill_coherence_bounds()).ok
