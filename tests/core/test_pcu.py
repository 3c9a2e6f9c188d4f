"""Tests for PEI Computation Units and operand buffers."""

import pytest

from repro.core.isa import EUCLIDEAN_DIST, FP_ADD
from repro.core.pcu import OperandBuffer, Pcu
from repro.sim.clock import ClockDomain


class TestOperandBuffer:
    def test_allocates_immediately_when_free(self):
        buf = OperandBuffer(4)
        assert buf.allocate(10.0) == 10.0

    def test_full_buffer_waits_for_earliest(self):
        buf = OperandBuffer(2)
        buf.allocate(0.0)
        buf.release(100.0)
        buf.allocate(0.0)
        buf.release(50.0)
        # Both entries busy; the next PEI waits for the one finishing at 50.
        assert buf.allocate(0.0) == 50.0
        assert buf.stalls == 1

    def test_freed_entry_reusable_without_stall(self):
        buf = OperandBuffer(1)
        buf.allocate(0.0)
        buf.release(10.0)
        assert buf.allocate(20.0) == 20.0
        assert buf.stalls == 0

    def test_in_flight_count(self):
        buf = OperandBuffer(4)
        buf.allocate(0.0)
        buf.release(10.0)
        assert buf.in_flight == 1

    def test_drain_time(self):
        buf = OperandBuffer(4)
        assert buf.drain_time(5.0) == 5.0
        buf.allocate(0.0)
        buf.release(100.0)
        assert buf.drain_time(5.0) == 100.0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            OperandBuffer(0)

    def test_mlp_scales_with_entries(self):
        """More entries admit more overlapped PEIs (Fig. 11a's premise)."""
        latency = 100.0

        def run(entries):
            buf = OperandBuffer(entries)
            t = 0.0
            for _ in range(16):
                start = buf.allocate(t)
                buf.release(start + latency)
                t = start  # issue as fast as allowed
            return buf.drain_time(t)

        assert run(4) < run(1)
        # Saturation: beyond the number of issued PEIs, no further benefit.
        assert run(32) == run(16)


class TestOperandBufferStallAccounting:
    """The stall counter and returned times under saturation (Fig. 11a)."""

    def test_stall_counted_once_per_blocked_allocate(self):
        buf = OperandBuffer(2)
        for completion in (100.0, 200.0):
            buf.release(completion)
        assert buf.allocate(0.0) == 100.0
        buf.release(300.0)
        assert buf.allocate(0.0) == 200.0
        assert buf.stalls == 2

    def test_full_but_expired_entry_is_not_a_stall(self):
        # The buffer is at capacity, but the earliest entry already
        # completed: the allocate proceeds at the requested time.
        buf = OperandBuffer(1)
        buf.allocate(0.0)
        buf.release(10.0)
        assert buf.allocate(50.0) == 50.0
        assert buf.stalls == 0

    def test_saturated_stream_stalls_all_but_first_entries(self):
        # 8 zero-time issues into a 2-entry buffer of 100-cycle PEIs:
        # the first two are free, every later one stalls.
        buf = OperandBuffer(2)
        latency = 100.0
        starts = []
        t = 0.0
        for _ in range(8):
            start = buf.allocate(t)
            starts.append(start)
            buf.release(start + latency)
        assert buf.stalls == 6
        # Each stalled PEI starts exactly when its predecessor-by-two ends.
        assert starts == [0.0, 0.0, 100.0, 100.0, 200.0, 200.0, 300.0, 300.0]

    def test_stall_returns_earliest_completion(self):
        buf = OperandBuffer(2)
        buf.allocate(0.0)
        buf.release(300.0)
        buf.allocate(0.0)
        buf.release(70.0)
        # Blocked allocate waits for the *earliest* in-flight completion.
        assert buf.allocate(5.0) == 70.0
        assert buf.stalls == 1

    def test_in_flight_shrinks_as_stalls_reclaim_entries(self):
        buf = OperandBuffer(2)
        buf.release(10.0)
        buf.release(20.0)
        assert buf.in_flight == 2
        buf.allocate(0.0)  # pops the entry completing at 10.0
        assert buf.in_flight == 1


class TestPcu:
    def test_compute_occupancy_host_clock(self):
        pcu = Pcu("p", ClockDomain(4.0, 4.0))
        finish = pcu.compute(0.0, FP_ADD)
        assert finish == pytest.approx(4.0)

    def test_memory_pcu_runs_at_half_clock(self):
        # 2 GHz memory-side PCU: compute cycles double in host cycles.
        pcu = Pcu("p", ClockDomain(2.0, 4.0))
        assert pcu.compute(0.0, FP_ADD) == pytest.approx(8.0)

    def test_single_issue_serializes(self):
        pcu = Pcu("p", ClockDomain(4.0, 4.0), issue_width=1)
        pcu.compute(0.0, EUCLIDEAN_DIST)
        assert pcu.compute(0.0, EUCLIDEAN_DIST) == pytest.approx(32.0)

    def test_wider_issue_reduces_occupancy(self):
        # Fig. 11b's knob: doubling issue width halves ALU occupancy.
        narrow = Pcu("n", ClockDomain(4.0, 4.0), issue_width=1)
        wide = Pcu("w", ClockDomain(4.0, 4.0), issue_width=2)
        assert wide.compute(0.0, EUCLIDEAN_DIST) < narrow.compute(0.0, EUCLIDEAN_DIST)

    def test_rejects_bad_issue_width(self):
        with pytest.raises(ValueError):
            Pcu("p", ClockDomain(4.0, 4.0), issue_width=0)
