"""Property-based tests of the PMU's dispatch and atomicity behaviour."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD, HASH_PROBE, INT_MIN
from repro.system.builder import build_machine
from repro.system.config import tiny_config

OPS = (FP_ADD, HASH_PROBE, INT_MIN)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50),
                          st.integers(0, 2), st.floats(1, 50)),
                min_size=1, max_size=80))
def test_pmu_grants_are_causal_and_atomic(events):
    """For any PEI sequence: grants are ordered after requests, writer
    spans never overlap per block, and every grant gets released."""
    machine = build_machine(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
    pmu = machine.pmu
    time = 0.0
    spans = []
    for core, block, op_idx, hold in events:
        op = OPS[op_idx]
        entry, decision_time, grant_time, _ = pmu.begin_pei(core, block, op,
                                                            time)
        assert grant_time >= decision_time >= time
        completion = grant_time + hold
        pmu.finish_pei(entry, op, completion)
        spans.append((entry, op.is_writer, grant_time, completion))
        time += 1.0
    for i, (e1, w1, g1, c1) in enumerate(spans):
        for e2, w2, g2, c2 in spans[i + 1:]:
            if e1 == e2 and (w1 or w2):
                assert g1 >= c2 or g2 >= c1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=60),
       st.sampled_from([DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
                        DispatchPolicy.LOCALITY_AWARE]))
def test_dispatch_counts_are_conserved(blocks, policy):
    """host_dispatched + mem_dispatched equals the number of admissions."""
    machine = build_machine(tiny_config(), policy)
    time = 0.0
    for block in blocks:
        entry, _, grant_time, _ = machine.pmu.begin_pei(0, block, FP_ADD, time)
        machine.pmu.finish_pei(entry, FP_ADD, grant_time + 10.0)
        time += 5.0
    total = (machine.stats["pei.host_dispatched"]
             + machine.stats["pei.mem_dispatched"])
    assert total == len(blocks)
    if policy is DispatchPolicy.HOST_ONLY:
        assert machine.stats["pei.mem_dispatched"] == 0
    if policy is DispatchPolicy.PIM_ONLY:
        assert machine.stats["pei.host_dispatched"] == 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
def test_fence_time_monotone_and_covering(blocks):
    """pfence covers every writer completion released so far, and the
    fence horizon never regresses."""
    machine = build_machine(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
    pmu = machine.pmu
    time = 0.0
    max_completion = 0.0
    last_fence = 0.0
    for block in blocks:
        entry, _, grant_time, _ = pmu.begin_pei(0, block, FP_ADD, time)
        completion = grant_time + 25.0
        pmu.finish_pei(entry, FP_ADD, completion)
        max_completion = max(max_completion, completion)
        fence = pmu.fence(time)
        assert fence >= max_completion
        assert fence >= last_fence - 1e-9 or fence >= time
        last_fence = fence
        time += 3.0
