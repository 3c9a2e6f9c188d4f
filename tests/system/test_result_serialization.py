"""Round-trip tests for RunResult serialization."""

import json

import pytest

from repro.core.dispatch import DispatchPolicy
from repro.energy.model import EnergyBreakdown
from repro.system.config import tiny_config
from repro.system.result import RunResult
from repro.system.system import System
from repro.workloads.analytics.histogram import Histogram


@pytest.fixture(scope="module")
def result():
    system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
    return system.run(Histogram(n_values=2000))


def json_round_trip(result):
    """The result as the caches store it: its dict, through JSON."""
    return RunResult.from_dict(json.loads(json.dumps(result.to_dict())))


class TestSerialization:
    def test_json_round_trip(self, result):
        restored = json_round_trip(result)
        assert restored.cycles == result.cycles
        assert restored.instructions == result.instructions
        assert restored.stats == result.stats
        assert restored.policy == result.policy

    def test_derived_metrics_survive(self, result):
        restored = json_round_trip(result)
        assert restored.pim_fraction == result.pim_fraction
        assert restored.offchip_bytes == result.offchip_bytes
        assert restored.ipc_sum == pytest.approx(result.ipc_sum)

    def test_energy_round_trips(self, result):
        restored = json_round_trip(result)
        assert restored.energy.total_pj == pytest.approx(result.energy.total_pj)
        assert restored.energy.dram_pj == pytest.approx(result.energy.dram_pj)

    def test_to_dict_is_json_safe(self, result):
        json.dumps(result.to_dict())  # must not raise

    def test_metadata_json_representable(self, result):
        payload = result.to_dict()
        json.dumps(payload["metadata"])  # every entry serializes
        assert set(payload["metadata"]) == {
            "n_threads", "max_ops_per_thread", "footprint_bytes",
            "config_l3_size"}


def make_result(metadata):
    return RunResult(
        workload="HG",
        policy="locality-aware",
        cycles=1000.0,
        instructions=500,
        per_core_instructions=[250, 250],
        stats={"pei.issued": 10.0},
        energy=EnergyBreakdown(caches_pj=1.0, dram_pj=2.0, offchip_pj=3.0,
                               onchip_network_pj=4.0, host_pcu_pj=5.0,
                               mem_pcu_pj=6.0, pmu_pj=7.0),
        metadata=metadata,
    )


class TestMetadataStructure:
    """to_dict copies the metadata as it is, structure included."""

    def test_lists_of_scalars_preserved(self):
        payload = make_result({"ops_per_thread": [300, 300, 280]}).to_dict()
        assert payload["metadata"]["ops_per_thread"] == [300, 300, 280]

    def test_dicts_of_scalars_preserved(self):
        knobs = {"issue_width": 2, "warmup": True, "label": "sweep-a"}
        payload = make_result({"knobs": knobs}).to_dict()
        assert payload["metadata"]["knobs"] == knobs

    def test_nested_structure_preserved(self):
        metadata = {"sweep": {"sizes": [1, 2, 4], "policy": "pim-only"}}
        payload = make_result(metadata).to_dict()
        assert payload["metadata"] == metadata

    def test_structured_metadata_round_trips(self):
        original = make_result({
            "ops_per_thread": [10, 20],
            "knobs": {"alpha": 0.5, "mode": "fast"},
        })
        restored = json_round_trip(original)
        assert restored.metadata == original.metadata
        assert restored.stats == original.stats
        assert restored.energy.total_pj == pytest.approx(
            original.energy.total_pj)
