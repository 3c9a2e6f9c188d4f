"""Tests for the differential checker (real directory vs. golden model)."""

from dataclasses import replace

from repro.verify.explorer import (
    build_directory,
    diff_schedule,
    explore,
    golden_index_fn,
    replay,
)
from repro.verify.schedule import (
    DirectoryCase,
    ExploreBounds,
    PeiStep,
    Schedule,
)

TINY = ExploreBounds(max_peis=2, durations=(3.0,), strides=(0.0, 7.0))

CASE = DirectoryCase(name="unit", entries=4, latency=2.0,
                     handoff_penalty=10.0, ideal=False, blocks=(1, 4))

MEMORY_LEAD = 6.0


def writer(block=0):
    return PeiStep(is_writer=True, on_host=True, block=block, duration=3.0)


def diff_codes(sched, events, entries):
    return {v.code for v in diff_schedule(CASE, sched, events, entries,
                                          MEMORY_LEAD)}


class TestGoldenIndex:
    def test_matches_real_directory(self):
        # Against the fold `acquire` runs: no simulator code calls index_of.
        fn = golden_index_fn(CASE)
        for block in (0, 1, 4, 5, 1023, 2**20 + 7):
            entry, _ = build_directory(CASE).acquire(block, False, 0.0)
            assert fn(block) == entry


class TestDiff:
    def test_faithful_replay_diffs_clean(self):
        sched = Schedule(steps=(writer(0), writer(1), writer(0)), stride=7.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        assert diff_schedule(CASE, sched, events, entries, MEMORY_LEAD) == []

    def test_tampered_grant_fires_ver007(self):
        sched = Schedule(steps=(writer(0), writer(0)), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        events[1] = replace(events[1], grant_time=events[1].grant_time + 1.0,
                            completion=events[1].completion + 1.0)
        assert "VER007" in diff_codes(sched, events, entries)

    def test_wrong_entry_fires_ver007(self):
        sched = Schedule(steps=(writer(0),), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        entries[0] = (entries[0] + 1) % CASE.entries
        assert "VER007" in diff_codes(sched, events, entries)

    def test_overlapping_writer_timeline_fires_ver007(self):
        # A second writer granted inside the first's window: the golden
        # model computes its own grants from the block and issue time, so
        # the real timeline cannot trip its bookkeeping (VER008); the
        # divergent grant is a VER007.
        sched = Schedule(steps=(writer(0), writer(0)), stride=0.0)
        events, entries = replay(CASE, sched, MEMORY_LEAD)
        events[1] = replace(events[1], grant_time=events[0].grant_time,
                            completion=events[0].completion)
        assert diff_codes(sched, events, entries) == {"VER007"}


class TestSweep:
    def test_tiny_differential_sweep_is_clean(self):
        report = explore(TINY)
        assert report.ok, report.summary()
        assert report.schedules > 0
