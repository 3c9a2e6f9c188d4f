"""The coherence pass: one owner per timestamp invariant.

The pass forwards every replay's ``PeiTrace``/``FenceTrace`` stream to the
protocol sanitizer, so a PMU that breaks timestamp monotonicity or the
pfence horizon on a full machine is caught by SAN004/SAN005, not by a
second copy of those checks in the pass.
"""

from repro.core.pmu import Pmu
from repro.verify.coherence import default_geometries, replay_coherence
from repro.verify.schedule import FENCE, PeiStep, Schedule

WRITER = PeiStep(is_writer=True, on_host=False, block=0, duration=5.0)


def codes(violations):
    return sorted({v.code for v in violations})


def replay(*steps):
    return replay_coherence(default_geometries()[0], "cold",
                            Schedule(steps=steps, stride=0.0), base_time=500.0)


def test_correct_pmu_is_clean():
    assert replay(WRITER, FENCE) == []


def test_decision_before_issue_fires_san004(monkeypatch):
    original = Pmu.begin_pei

    def early_decision(self, core_port, block, op, time):
        grant = original(self, core_port, block, op, time)
        return grant._replace(decision_time=time - 1.0)

    monkeypatch.setattr(Pmu, "begin_pei", early_decision)
    assert "SAN004" in codes(replay(WRITER))


def test_fence_ignoring_writers_fires_san005(monkeypatch):
    monkeypatch.setattr(Pmu, "fence", lambda self, time: time)
    assert codes(replay(WRITER, FENCE)) == ["SAN005"]
