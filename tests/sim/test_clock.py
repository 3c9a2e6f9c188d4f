"""Tests for clock-domain conversion."""

import pytest

from repro.sim.clock import ClockDomain


class TestClockDomain:
    def test_same_domain_identity(self):
        clock = ClockDomain(4.0, 4.0)
        assert clock.cycles(10) == 10

    def test_slower_domain_scales_up(self):
        # 2 GHz device cycles are twice as long in 4 GHz host cycles.
        clock = ClockDomain(2.0, 4.0)
        assert clock.cycles(10) == 20

    def test_ns_conversion(self):
        clock = ClockDomain(1.0, 4.0)
        assert clock.from_ns(13.75) == pytest.approx(55.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ClockDomain(0.0)
        with pytest.raises(ValueError):
            ClockDomain(1.0, -4.0)

    def test_repr(self):
        assert "2.0" in repr(ClockDomain(2.0))
