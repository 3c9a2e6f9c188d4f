"""Tests for DRAM bank timing."""

import pytest

from repro.mem.dram import DramBank, DramTimings
from repro.system.config import SystemConfig


@pytest.fixture
def timings():
    # 13.75 ns at 4 GHz = 55 host cycles for each of tCL/tRCD/tRP.
    return DramTimings.from_config(SystemConfig())


class TestDramTimings:
    def test_table2_values(self, timings):
        assert timings.t_cl == pytest.approx(55.0)
        assert timings.t_rcd == pytest.approx(55.0)
        assert timings.t_rp == pytest.approx(55.0)
        assert timings.burst == pytest.approx(16.0)


class TestDramBank:
    def test_closed_bank_pays_activate(self, timings):
        bank = DramBank(timings)
        finish = bank.access(0.0, row=5)
        # tRCD + tCL + burst
        assert finish == pytest.approx(55 + 55 + 16)
        assert bank.row_misses == 1

    def test_row_hit_is_cheap(self, timings):
        bank = DramBank(timings)
        first = bank.access(0.0, row=5)
        second = bank.access(first, row=5)
        assert second - first == pytest.approx(55 + 16)  # tCL + burst
        assert bank.row_hits == 1

    def test_row_conflict_pays_precharge(self, timings):
        bank = DramBank(timings)
        first = bank.access(0.0, row=5)
        second = bank.access(first, row=9)
        assert second - first == pytest.approx(55 + 55 + 55 + 16)
        assert bank.row_conflicts == 1

    def test_accesses_counter(self, timings):
        bank = DramBank(timings)
        bank.access(0.0, 1)
        bank.access(500.0, 1)
        bank.access(1000.0, 2)
        assert bank.accesses == 3

    def test_serialization_through_resource(self, timings):
        bank = DramBank(timings)
        a = bank.access(0.0, row=1)
        b = bank.access(0.0, row=1)  # same-instant arrival queues
        assert b > a

    def test_reset(self, timings):
        bank = DramBank(timings)
        bank.access(0.0, 1)
        bank.reset()
        assert bank.open_row is None
        assert bank.accesses == 0

    def test_reset_clears_queue(self, timings):
        bank = DramBank(timings)
        bank.access(0.0, 1)
        bank.access(0.0, 1)
        assert bank.clock == 0.0 and bank.backlog > 0.0
        bank.access(10.0, 1)
        assert bank.clock == 10.0
        bank.reset()
        assert (bank.clock, bank.backlog) == (0.0, 0.0)
        # A fresh closed-bank access starts at once again.
        assert bank.access(0.0, row=5) == pytest.approx(55 + 55 + 16)
