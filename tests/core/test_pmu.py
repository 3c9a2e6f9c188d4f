"""Tests for the PEI Management Unit."""

import pytest

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD, HASH_PROBE
from repro.system.builder import build_machine
from repro.system.config import tiny_config


def make_pmu(policy=DispatchPolicy.LOCALITY_AWARE, **overrides):
    machine = build_machine(tiny_config(**overrides), policy)
    return machine


class TestAdmission:
    def test_grant_is_ordered(self):
        machine = make_pmu()
        _, decision_time, grant_time, _ = machine.pmu.begin_pei(
            0, block=5, op=FP_ADD, time=10.0)
        assert grant_time >= decision_time > 10.0

    def test_unknown_block_goes_to_memory(self):
        machine = make_pmu()
        _, _, _, on_host = machine.pmu.begin_pei(0, 5, FP_ADD, 0.0)
        assert on_host is False

    def test_llc_resident_block_stays_on_host(self):
        machine = make_pmu()
        machine.monitor.observe_llc_access(5)
        _, _, _, on_host = machine.pmu.begin_pei(0, 5, FP_ADD, 0.0)
        assert on_host is True

    def test_host_only_never_offloads(self):
        machine = make_pmu(DispatchPolicy.HOST_ONLY)
        assert machine.pmu.begin_pei(0, 5, FP_ADD, 0.0)[3] is True

    def test_pim_only_always_offloads(self):
        machine = make_pmu(DispatchPolicy.PIM_ONLY)
        machine.monitor.observe_llc_access(5)
        assert machine.pmu.begin_pei(0, 5, FP_ADD, 0.0)[3] is False

    def test_ideal_host_admission_is_free(self):
        machine = make_pmu(DispatchPolicy.IDEAL_HOST)
        _, _, grant_time, on_host = machine.pmu.begin_pei(0, 5, FP_ADD,
                                                          time=10.0)
        assert on_host is True
        assert grant_time == 10.0

    def test_memory_dispatch_updates_monitor(self):
        machine = make_pmu()
        machine.pmu.begin_pei(0, 5, FP_ADD, 0.0)  # miss -> memory
        # The PIM issue allocated an ignore-flagged entry: the next PEI
        # still goes to memory, the one after runs on the host.
        assert machine.pmu.begin_pei(0, 5, FP_ADD, 100.0)[3] is False
        assert machine.pmu.begin_pei(0, 5, FP_ADD, 200.0)[3] is True

    def test_dispatch_statistics(self):
        machine = make_pmu()
        machine.monitor.observe_llc_access(5)
        machine.pmu.begin_pei(0, 5, FP_ADD, 0.0)
        machine.pmu.begin_pei(0, 99, FP_ADD, 0.0)
        assert machine.stats["pei.host_dispatched"] == 1
        assert machine.stats["pei.mem_dispatched"] == 1


class TestAtomicityThroughPmu:
    def test_same_block_writers_serialize(self):
        machine = make_pmu()
        pmu = machine.pmu
        entry, _, _, _ = pmu.begin_pei(0, 5, FP_ADD, 0.0)
        pmu.finish_pei(entry, FP_ADD, 500.0)
        _, _, grant_time, _ = pmu.begin_pei(1, 5, FP_ADD, 0.0)
        assert grant_time >= 500.0

    def test_readers_overlap(self):
        machine = make_pmu()
        pmu = machine.pmu
        entry, _, _, _ = pmu.begin_pei(0, 5, HASH_PROBE, 0.0)
        pmu.finish_pei(entry, HASH_PROBE, 500.0)
        _, _, grant_time, _ = pmu.begin_pei(1, 5, HASH_PROBE, 0.0)
        assert grant_time < 500.0


class TestCoherenceManagement:
    def test_writer_pei_back_invalidates(self):
        machine = make_pmu()
        machine.hierarchy.access(0, 5 * 64, True, 0.0)  # dirty on chip
        ready = machine.pmu.clean_block_for_memory(5, FP_ADD, 100.0)
        assert ready > 100.0
        assert not machine.hierarchy.present(5)
        assert machine.stats["pmu.back_invalidations"] == 1

    def test_reader_pei_back_writebacks(self):
        machine = make_pmu()
        machine.hierarchy.access(0, 5 * 64, True, 0.0)
        machine.pmu.clean_block_for_memory(5, HASH_PROBE, 100.0)
        assert machine.hierarchy.present(5)  # copies remain, now clean
        assert machine.stats["pmu.back_writebacks"] == 1

    def test_uncached_block_is_free(self):
        machine = make_pmu()
        ready = machine.pmu.clean_block_for_memory(5, FP_ADD, 100.0)
        assert ready == 100.0


class TestFence:
    def test_fence_covers_writer_completions(self):
        machine = make_pmu()
        pmu = machine.pmu
        entry, _, _, _ = pmu.begin_pei(0, 5, FP_ADD, 0.0)
        pmu.finish_pei(entry, FP_ADD, 750.0)
        assert pmu.fence(10.0) >= 750.0
        assert machine.stats["pei.pfences"] == 1
