"""Tests for the fluid-backlog resource model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.resource import BandwidthLink, BankedResource, Resource


class TestResource:
    def test_idle_starts_immediately(self):
        r = Resource()
        assert r.acquire(10.0, 5.0) == 10.0

    def test_back_to_back_queues(self):
        r = Resource()
        assert r.acquire(0.0, 5.0) == 0.0
        # Second arrival at the same instant waits for the first.
        assert r.acquire(0.0, 5.0) == 5.0

    def test_backlog_drains_with_time(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        # Arriving after the backlog drained: no queueing.
        assert r.acquire(10.0, 5.0) == 10.0

    def test_partial_drain(self):
        r = Resource()
        r.acquire(0.0, 10.0)
        # At t=4, six cycles of backlog remain.
        assert r.acquire(4.0, 1.0) == pytest.approx(10.0)

    def test_out_of_order_arrival_not_blocked_by_future(self):
        # The motivating property: a far-future acquisition must not delay
        # earlier requests by a phantom reservation.
        r = Resource()
        r.acquire(100000.0, 2.0)
        start = r.acquire(100.0, 2.0)
        assert start < 1000.0

    def test_busy_accounting(self):
        r = Resource()
        r.acquire(0.0, 3.0)
        r.acquire(0.0, 4.0)
        assert r.busy_cycles == 7.0

    def test_utilization(self):
        r = Resource()
        r.acquire(0.0, 50.0)
        assert r.utilization(100.0) == pytest.approx(0.5)
        assert r.utilization(0.0) == 0.0
        assert r.utilization(10.0) == 1.0  # clamped

    def test_utilization_accumulates_across_acquires(self):
        r = Resource()
        r.acquire(0.0, 10.0)
        r.acquire(20.0, 30.0)
        assert r.utilization(100.0) == pytest.approx(0.4)
        assert r.utilization(-5.0) == 0.0  # degenerate horizon

    def test_utilization_idle_resource_is_zero(self):
        assert Resource().utilization(100.0) == 0.0

    def test_peek_does_not_mutate(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        before = (r.clock, r.backlog)
        r.peek(1.0)
        assert (r.clock, r.backlog) == before

    def test_reset(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        r.reset()
        assert r.acquire(0.0, 1.0) == 0.0
        assert r.busy_cycles == 1.0

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0.1, 100)),
                    min_size=1, max_size=50))
    def test_monotone_arrivals_match_fcfs_queue(self, events):
        """For time-ordered arrivals the model is an exact FCFS queue."""
        events = sorted(events, key=lambda e: e[0])
        r = Resource()
        next_free = 0.0
        for arrival, occ in events:
            start = r.acquire(arrival, occ)
            expected = max(arrival, next_free)
            assert start == pytest.approx(expected, rel=1e-9, abs=1e-6)
            next_free = expected + occ

    @given(st.lists(st.tuples(st.floats(0, 1e5), st.floats(0.1, 50)),
                    min_size=1, max_size=50))
    def test_start_never_before_arrival(self, events):
        r = Resource()
        for arrival, occ in events:
            assert r.acquire(arrival, occ) >= arrival


class TestBandwidthLink:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BandwidthLink("bad", 0)

    def test_transfer_time(self):
        link = BandwidthLink("l", 10.0)
        assert link.transfer(0.0, 100) == pytest.approx(10.0)

    def test_serialization(self):
        link = BandwidthLink("l", 10.0)
        link.transfer(0.0, 100)
        assert link.transfer(0.0, 100) == pytest.approx(20.0)

    def test_byte_accounting(self):
        link = BandwidthLink("l", 10.0)
        link.transfer(0.0, 100)
        link.transfer(50.0, 20)
        assert link.bytes_transferred == 120

    def test_reset_clears_bytes(self):
        link = BandwidthLink("l", 10.0)
        link.transfer(0.0, 100)
        link.reset()
        assert link.bytes_transferred == 0

    def test_zero_byte_transfer(self):
        link = BandwidthLink("l", 10.0)
        assert link.transfer(5.0, 0) == 5.0
        assert link.bytes_transferred == 0
        assert link.busy_cycles == 0.0

    def test_byte_accounting_independent_of_queueing(self):
        # Bytes count what was *sent*, regardless of when the link could
        # actually serve the transfer.
        link = BandwidthLink("l", 1.0)
        link.transfer(0.0, 50)
        finish = link.transfer(0.0, 30)  # queues behind the first transfer
        assert finish == pytest.approx(80.0)
        assert link.bytes_transferred == 80

    def test_busy_cycles_derived_from_bytes(self):
        link = BandwidthLink("l", 4.0)
        link.transfer(0.0, 100)
        link.transfer(3.0, 60)
        assert link.busy_cycles == link.bytes_transferred / link.bytes_per_cycle
        assert link.busy_cycles == 40.0
        link.reset()
        assert link.busy_cycles == 0.0

    def test_utilization_matches_bytes_over_rate(self):
        link = BandwidthLink("l", 4.0)
        link.transfer(0.0, 100)
        link.transfer(10.0, 60)
        elapsed = 100.0
        expected = (160 / 4.0) / elapsed
        assert link.utilization(elapsed) == pytest.approx(expected)


class TestBankedResource:
    def test_bank_selection_wraps(self):
        banks = BankedResource("b", 4)
        banks.acquire(0, 0.0, 10.0)
        # Index 4 maps back to bank 0 and queues behind the first request.
        assert banks.acquire(4, 0.0, 10.0) == pytest.approx(10.0)
        # A different bank is free.
        assert banks.acquire(1, 0.0, 10.0) == 0.0

    def test_len(self):
        assert len(BankedResource("b", 8)) == 8

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BankedResource("b", 0)
