"""Self-validation: every seeded protocol defect must be killed.

This is the acceptance criterion for the checker itself — a harness that
cannot detect a dropped handoff penalty or a skipped back-invalidation
would pass silently on a broken simulator too.
"""

from repro.verify.explorer import explore
from repro.verify.mutants import MUTANTS, kill_bounds, run_mutants


class TestCatalogue:
    def test_at_least_five_mutants(self):
        assert len(MUTANTS) >= 5

    def test_names_are_unique_and_described(self):
        names = [mutant.name for mutant in MUTANTS]
        assert len(names) == len(set(names))
        for mutant in MUTANTS:
            assert mutant.description

    def test_catalogue_covers_both_layers(self):
        # Directory-timing defects and machine-level coherence defects.
        assert any(mutant.needs_machine for mutant in MUTANTS)
        assert any(not mutant.needs_machine for mutant in MUTANTS)


class TestKills:
    def test_every_mutant_is_killed(self):
        report = run_mutants()
        assert report.ok, report.summary()
        assert len(report.outcomes) == len(MUTANTS)
        for outcome in report.outcomes:
            assert outcome.killed, outcome.describe()
            assert outcome.codes  # at least one VER/SAN code fired

    def test_reader_ignoring_writer_is_judged_by_simsan(self):
        # The explorer's per-block exclusion verdict is simsan's SAN002;
        # the retired VER001-VER006 restatements no longer exist.
        mutant = next(m for m in MUTANTS if m.name == "reader-ignores-writer")
        with mutant.patch():
            report = explore(kill_bounds())
        assert "SAN002" in report.by_code
        retired = {f"VER00{n}" for n in range(1, 7)}
        assert not retired & set(report.by_code), report.summary()


class TestBaselineStillClean:
    def test_unmutated_simulator_passes_kill_bounds(self):
        # The mutant harness's own bounds must be green on the real code,
        # or a kill would be indistinguishable from a flaky bound.
        assert explore(kill_bounds()).ok
