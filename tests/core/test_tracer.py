"""Tests for the per-PEI tracer."""

import pytest

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD
from repro.core.tracer import PeiTrace
from repro.obs.hooks import attach
from repro.obs.telemetry import Telemetry
from repro.system.builder import build_machine
from repro.system.config import tiny_config

VADDR = 0x90000


def traced_machine(policy=DispatchPolicy.LOCALITY_AWARE, capacity=None):
    machine = build_machine(tiny_config(), policy)
    sink = Telemetry(trace_capacity=capacity)
    attach(machine, sink)
    return machine, sink.tracer


class TestPeiTrace:
    def test_derived_metrics(self):
        trace = PeiTrace(core=0, op="pim.fadd", block=5, on_host=True,
                         issue_time=10.0, grant_time=15.0, completion=40.0)
        assert trace.latency == 30.0
        assert trace.lock_wait == 5.0

    def test_lock_wait_clamped(self):
        trace = PeiTrace(0, "pim.fadd", 5, True, 10.0, 10.0, 40.0)
        assert trace.lock_wait == 0.0


class TestPeiTracer:
    def test_records_every_pei(self):
        machine, tracer = traced_machine()
        for i in range(5):
            machine.executor.execute(machine.cores[0], FP_ADD,
                                     VADDR + 64 * i, False)
        assert len(tracer) == 5
        assert all(t.op == "pim.fadd" for t in tracer.records)

    def test_records_execution_location(self):
        machine, tracer = traced_machine(DispatchPolicy.PIM_ONLY)
        machine.executor.execute(machine.cores[0], FP_ADD, VADDR, False)
        assert tracer.records[0].on_host is False

    def test_capacity_drops_excess(self):
        machine, tracer = traced_machine(capacity=2)
        for i in range(5):
            machine.executor.execute(machine.cores[0], FP_ADD,
                                     VADDR + 64 * i, False)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_timestamps_ordered(self):
        machine, tracer = traced_machine()
        machine.executor.execute(machine.cores[0], FP_ADD, VADDR, False)
        t = tracer.records[0]
        assert t.issue_time <= t.grant_time <= t.completion


class TestEventInterleaving:
    """The combined events stream keeps PEIs and fences in record order."""

    def test_fence_interleaves_between_peis(self):
        machine, tracer = traced_machine()
        machine.executor.execute(machine.cores[0], FP_ADD, VADDR, False)
        machine.executor.fence(machine.cores[0])
        machine.executor.execute(machine.cores[0], FP_ADD, VADDR + 64, False)
        kinds = [type(e).__name__ for e in tracer.events]
        assert kinds == ["PeiTrace", "FenceTrace", "PeiTrace"]
        assert len(tracer.records) == 2
        assert len(tracer.fences) == 1

    def test_events_is_union_of_records_and_fences(self):
        machine, tracer = traced_machine()
        for i in range(3):
            machine.executor.execute(machine.cores[0], FP_ADD,
                                     VADDR + 64 * i, False)
            machine.executor.fence(machine.cores[0])
        assert len(tracer.events) == len(tracer.records) + len(tracer.fences)
        assert set(map(id, tracer.records)) | set(map(id, tracer.fences)) \
            == set(map(id, tracer.events))

    def test_capacity_bounds_combined_stream(self):
        machine, tracer = traced_machine(capacity=3)
        for i in range(3):
            machine.executor.execute(machine.cores[0], FP_ADD,
                                     VADDR + 64 * i, False)
        machine.executor.fence(machine.cores[0])  # over capacity: dropped
        assert len(tracer.events) == 3
        assert tracer.fences == []
        assert tracer.dropped == 1

    def test_fence_timestamps_ordered(self):
        machine, tracer = traced_machine()
        machine.executor.execute(machine.cores[0], FP_ADD, VADDR, False)
        machine.executor.fence(machine.cores[0])
        fence = tracer.fences[0]
        assert fence.release_time >= fence.issue_time
        assert fence.stall == fence.release_time - fence.issue_time
