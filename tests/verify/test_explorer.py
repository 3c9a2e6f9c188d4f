"""Tests for the bounded exhaustive explorer and the judge of its timelines."""

from dataclasses import replace

from repro.core.tracer import FenceTrace, PeiTrace
from repro.verify.explorer import (
    ExploreReport,
    Violation,
    explore,
    judge,
    replay,
)
from repro.verify.schedule import (
    DirectoryCase,
    ExploreBounds,
    FENCE,
    PeiStep,
    Schedule,
    count_schedules,
    enumerate_schedules,
)

TINY = ExploreBounds(max_peis=2, durations=(3.0,), strides=(0.0, 7.0),
                     include_fences=True)

CASE = DirectoryCase(name="unit", entries=4, latency=2.0,
                     handoff_penalty=10.0, ideal=False, blocks=(1, 4))

MEMORY_LEAD = 6.0


def writer(block=0, host=True, duration=3.0):
    return PeiStep(is_writer=True, on_host=host, block=block,
                   duration=duration)


def reader(block=0, host=True, duration=3.0):
    return PeiStep(is_writer=False, on_host=host, block=block,
                   duration=duration)


def codes(sched, events, entries):
    return {v.code for v in judge(CASE, sched, events, entries, MEMORY_LEAD)}


class TestEnumeration:
    def test_count_matches_enumeration(self):
        schedules = list(enumerate_schedules(TINY))
        assert len(schedules) == count_schedules(TINY)

    def test_every_stride_appears(self):
        strides = {sched.stride for sched in enumerate_schedules(TINY)}
        assert strides == {0.0, 7.0}

    def test_fences_can_be_excluded(self):
        bare = ExploreBounds(max_peis=2, durations=(3.0,), strides=(0.0,),
                             include_fences=False)
        for sched in enumerate_schedules(bare):
            assert FENCE not in sched.steps


class TestReplay:
    def test_contended_writers_serialize_with_handoff(self):
        sched = Schedule(steps=(writer(), writer()), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        first, second = events
        assert first.grant_time == 2.0       # issue + latency
        assert first.completion == 5.0
        assert second.grant_time == 15.0     # completion + handoff
        assert entries == [1, 1]
        assert judge(CASE, sched, events, entries, MEMORY_LEAD) == []

    def test_memory_side_occupancy_includes_lead(self):
        sched = Schedule(steps=(writer(host=False), reader(host=False)),
                         stride=0.0)
        events, _ = replay(CASE, sched, MEMORY_LEAD)
        for event, invalidates in zip(events, (True, False)):
            assert event.completion == event.grant_time + 9.0
            # The clean the lead pays for: back-invalidation for a writer,
            # back-writeback for a reader, ready when compute starts.
            assert event.clean_time == event.grant_time + MEMORY_LEAD
            assert event.clean_invalidate is invalidates

    def test_fence_waits_for_writer(self):
        sched = Schedule(steps=(writer(), FENCE), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        pei, fence = events
        assert isinstance(pei, PeiTrace) and isinstance(fence, FenceTrace)
        assert fence.release_time >= pei.completion
        assert entries[1] is None


class TestInvariants:
    """Tampered timelines draw the owning simsan or differential code."""

    def test_overlapping_writers_fire_san001(self):
        sched = Schedule(steps=(writer(), writer()), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        # Tamper: pull the second writer's grant inside the first's window.
        events[1] = replace(events[1], grant_time=3.0, completion=6.0)
        assert "SAN001" in codes(sched, events, entries)

    def test_early_grant_fires_ver007(self):
        # Granted before issue + directory latency: the golden model pins
        # every grant to its exact admissible time.
        sched = Schedule(steps=(writer(),), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        events[0] = replace(events[0], grant_time=0.5, completion=3.5)
        assert "VER007" in codes(sched, events, entries)

    def test_fence_below_writer_completion_fires_san005(self):
        sched = Schedule(steps=(writer(), FENCE), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        events[1] = replace(events[1], release_time=1.0)
        assert "SAN005" in codes(sched, events, entries)


class TestExplore:
    def test_tiny_sweep_is_clean(self):
        report = explore(TINY)
        assert report.ok, report.summary()
        assert report.schedules == count_schedules(TINY)
        assert report.replays > report.schedules  # several geometries each

    def test_report_caps_kept_violations(self):
        report = ExploreReport(max_kept=2)
        for i in range(5):
            report.record([Violation(code="SAN001", case="c",
                                     schedule=f"s{i}", detail="d")])
        assert len(report.violations) == 2
        assert report.by_code["SAN001"] == 5
        assert not report.ok
