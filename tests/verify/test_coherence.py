"""The coherence pass: one owner per timestamp invariant.

The pass forwards every replay's ``PeiTrace``/``FenceTrace`` stream to the
protocol sanitizer, so a PMU that breaks timestamp monotonicity, the
pfence horizon or the clean window on a full machine is caught by
SAN004/SAN005/SAN003, not by a second copy of those checks in the pass.
"""

from repro.core.pmu import Pmu
from repro.verify.coherence import default_geometries, replay_coherence
from repro.verify.schedule import FENCE, PeiStep, Schedule

WRITER = PeiStep(is_writer=True, on_host=False, block=0, duration=5.0)


def codes(violations):
    return sorted({v.code for v in violations})


def replay(*steps):
    return replay_coherence(default_geometries()[0], "cold",
                            Schedule(steps=steps, stride=0.0))


def test_correct_pmu_is_clean():
    assert replay(WRITER, FENCE) == []


def test_decision_before_issue_fires_san004(monkeypatch):
    original = Pmu.begin_pei

    def early_decision(self, core_port, block, op, time):
        entry, _, grant_time, on_host = original(self, core_port, block, op,
                                                 time)
        return entry, time - 1.0, grant_time, on_host

    monkeypatch.setattr(Pmu, "begin_pei", early_decision)
    assert "SAN004" in codes(replay(WRITER))


def test_fence_ignoring_writers_fires_san005(monkeypatch):
    monkeypatch.setattr(Pmu, "fence", lambda self, time: time)
    assert codes(replay(WRITER, FENCE)) == ["SAN005"]


def test_clean_ready_before_grant_fires_san003(monkeypatch):
    # SAN003 owns "the clean lies inside [grant, completion]"; VER009 keeps
    # only the clean-cost checks.
    original = Pmu.clean_block_for_memory

    def early_clean(self, block, op, time):
        original(self, block, op, time)
        return time - 1.0

    monkeypatch.setattr(Pmu, "clean_block_for_memory", early_clean)
    assert "SAN003" in codes(replay(WRITER))
