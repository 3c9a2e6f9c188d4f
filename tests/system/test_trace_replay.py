"""Replay equivalence across the paper's configurations.

The trace-once/replay-many engine is only usable if replay is perfectly
invisible: for every workload family and every Figure 6 configuration,
``System.run(trace)`` must produce a ``RunResult`` byte-identical to
``System.run(workload)`` — cycles, every stats counter, per-core detail.
Both replay engines are held to the bar: the scalar op-by-op loop and the
columnar plan-compiled engine (:mod:`repro.system.columnar`), which must
also leave the *machine* in scalar-identical state (TLBs, page table,
monitor) so runs after a columnar replay stay equivalent.  One workload
per family keeps the matrix cheap while covering the three stream shapes
(barrier-phased graph traversal, compute-dense ML kernels, chained
analytics probes).
"""

import copy
import dataclasses
import json

import pytest

from repro.core.dispatch import DispatchPolicy
from repro.cpu.trace import TraceError, capture_trace
from repro.system.config import tiny_config
from repro.system.system import System
from repro.workloads.registry import make_workload

REPLAY_ENGINES = ("scalar", "columnar")

#: One representative per Table 3 family.
FAMILY_WORKLOADS = (
    ("graph", "BFS"),
    ("ml", "SC"),
    ("analytics", "HJ"),
)

#: The paper's four execution configurations (Fig. 6 / Section 7).
PAPER_POLICIES = (
    DispatchPolicy.HOST_ONLY,
    DispatchPolicy.PIM_ONLY,
    DispatchPolicy.LOCALITY_AWARE,
    DispatchPolicy.IDEAL_HOST,
)

OPS_CAP = 400


def canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module", params=[name for _, name in FAMILY_WORKLOADS],
                ids=[f"{family}-{name}" for family, name in FAMILY_WORKLOADS])
def captured(request):
    """(name, trace): one capture per family, shared across policies."""
    name = request.param
    config = tiny_config()
    workload = make_workload(name, "small", seed=11)
    trace = capture_trace(workload, n_threads=config.n_cores,
                          max_ops_per_thread=OPS_CAP,
                          page_size=config.page_size)
    return name, trace


@pytest.mark.parametrize("engine", REPLAY_ENGINES)
@pytest.mark.parametrize("policy", PAPER_POLICIES,
                         ids=[p.value for p in PAPER_POLICIES])
def test_replay_bit_identical(captured, policy, engine):
    name, trace = captured
    generated = System(tiny_config(), policy).run(
        make_workload(name, "small", seed=11), max_ops_per_thread=OPS_CAP)
    replayed = System(tiny_config(), policy).run(
        trace, max_ops_per_thread=OPS_CAP, engine=engine)
    assert canon(replayed) == canon(generated)


def test_replay_is_deterministic(captured):
    """Two replays of one trace are bit-identical (no hidden state)."""
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    first = System(tiny_config(), policy).run(trace, max_ops_per_thread=OPS_CAP)
    second = System(tiny_config(), policy).run(trace, max_ops_per_thread=OPS_CAP)
    assert canon(first) == canon(second)


def test_replay_metadata_records_effective_cap(captured):
    """Default-args replay records the cap that actually shaped the stream.

    The trace was cut at capture time under OPS_CAP, so ``run(trace)`` with
    no cap argument must record OPS_CAP — exactly what a direct run of the
    workload under OPS_CAP records — not None (the old drift).
    """
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    generated = System(tiny_config(), policy).run(
        make_workload(name, "small", seed=11), max_ops_per_thread=OPS_CAP)
    for engine in ("auto",) + REPLAY_ENGINES:
        replayed = System(tiny_config(), policy).run(trace, engine=engine)
        # Serialized metadata is the cross-engine contract; the live dict
        # may additionally carry transient (underscore-prefixed) harness
        # annotations such as the columnar plan-cache delta.
        assert replayed.to_dict()["metadata"] == \
            generated.to_dict()["metadata"]
        assert replayed.metadata["max_ops_per_thread"] == OPS_CAP


def test_columnar_restores_machine_state(captured):
    """A run *after* a columnar replay matches a run after a scalar one.

    The columnar engine precomputes TLB outcomes and page-table effects;
    it must write the final TLB contents, hit/miss totals and page table
    back, so a reused System (which falls back to the scalar path on its
    non-cold machine) stays bit-identical.
    """
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    via_columnar = System(tiny_config(), policy)
    via_columnar.run(trace, engine="columnar")
    second_c = via_columnar.run(trace)
    via_scalar = System(tiny_config(), policy)
    via_scalar.run(trace, engine="scalar")
    second_s = via_scalar.run(trace, engine="scalar")
    assert canon(second_c) == canon(second_s)


def test_columnar_non_lru_replacement_identical(captured):
    """Non-LRU replacement warms block by block and stays identical."""
    name, trace = captured
    config = dataclasses.replace(tiny_config(),
                                 cache_replacement_policy="random")
    policy = DispatchPolicy.LOCALITY_AWARE
    columnar = System(config, policy).run(trace, engine="columnar")
    scalar = System(config, policy).run(trace, engine="scalar")
    assert canon(columnar) == canon(scalar)


def test_forced_columnar_requires_warm_start(captured):
    """engine='columnar' raises where auto would silently fall back."""
    name, trace = captured
    policy = DispatchPolicy.LOCALITY_AWARE
    with pytest.raises(TraceError):
        System(tiny_config(), policy).run(trace, engine="columnar",
                                          warm_start=False)
    cold_auto = System(tiny_config(), policy).run(trace, warm_start=False)
    cold_scalar = System(tiny_config(), policy).run(trace, engine="scalar",
                                                    warm_start=False)
    assert canon(cold_auto) == canon(cold_scalar)


def test_unknown_engine_rejected(captured):
    name, trace = captured
    with pytest.raises(ValueError):
        System(tiny_config()).run(trace, engine="warp")


@pytest.mark.parametrize("engine", REPLAY_ENGINES)
def test_unaligned_region_rejected(captured, engine):
    """Warm start faults whole pages per region, so a region whose base
    is not page-aligned is refused by either engine, not approximated."""
    name, trace = captured
    shifted = copy.copy(trace)
    _, base, size = trace.regions[0]
    shifted.regions = [("shifted", base + 64, size)] + trace.regions[1:]
    shifted.fingerprint = trace.fingerprint + "-shifted"
    with pytest.raises(ValueError, match="not aligned"):
        System(tiny_config()).run(shifted, engine=engine)
