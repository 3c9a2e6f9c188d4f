"""Tests for the energy model (Fig. 12's accounting)."""

import pytest

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.energy.params import EnergyParams
from repro.sim.stats import Stats


class TestEnergyModel:
    def test_empty_stats_zero_energy(self):
        assert EnergyModel().compute(Stats()).total_pj == 0.0

    def test_cache_energy(self):
        stats = Stats()
        stats.add("l1.accesses", 10)
        stats.add("l2.accesses", 5)
        stats.add("l3.accesses", 2)
        params = EnergyParams()
        expected = (10 * params.l1_access_pj + 5 * params.l2_access_pj
                    + 2 * params.l3_access_pj)
        assert EnergyModel().compute(stats).caches_pj == pytest.approx(expected)

    def test_dram_counts_pim_accesses(self):
        stats = Stats()
        stats.add("dram.reads", 1)
        stats.add("dram.pim_reads", 1)
        stats.add("dram.pim_writes", 1)
        breakdown = EnergyModel().compute(stats)
        assert breakdown.dram_pj == pytest.approx(3 * EnergyParams().dram_access_pj)

    def test_offchip_per_byte(self):
        stats = Stats()
        stats.set("offchip.request_bytes", 100)
        stats.set("offchip.response_bytes", 50)
        breakdown = EnergyModel().compute(stats)
        assert breakdown.offchip_pj == pytest.approx(150 * EnergyParams().offchip_per_byte_pj)

    def test_pcu_split(self):
        stats = Stats()
        stats.add("pei.host_executed", 2)
        stats.add("pei.mem_executed", 3)
        breakdown = EnergyModel().compute(stats)
        params = EnergyParams()
        assert breakdown.host_pcu_pj == pytest.approx(2 * params.host_pcu_op_pj)
        assert breakdown.mem_pcu_pj == pytest.approx(3 * params.mem_pcu_op_pj)

    def test_custom_params(self):
        stats = Stats()
        stats.add("l1.accesses", 1)
        model = EnergyModel(EnergyParams(l1_access_pj=123.0))
        assert model.compute(stats).caches_pj == 123.0


class TestBreakdown:
    def test_total_sums_fields(self):
        b = EnergyBreakdown(1, 2, 3, 4, 5, 6, 7)
        assert b.total_pj == 28

    def test_hmc_energy_is_dram_plus_mem_pcu(self):
        b = EnergyBreakdown(caches_pj=0, dram_pj=100, offchip_pj=0,
                            onchip_network_pj=0, host_pcu_pj=0,
                            mem_pcu_pj=2, pmu_pj=0)
        assert b.hmc_pj == 102
        assert b.mem_pcu_fraction_of_hmc == pytest.approx(2 / 102)

    def test_mem_pcu_fraction_empty(self):
        b = EnergyBreakdown(0, 0, 0, 0, 0, 0, 0)
        assert b.mem_pcu_fraction_of_hmc == 0.0

    def test_to_dict(self):
        d = EnergyBreakdown(1, 2, 3, 4, 5, 6, 7).to_dict()
        assert d["total_pj"] == 28
        assert d["dram_pj"] == 2


class TestSection77Claim:
    def test_memory_pcu_energy_is_small_fraction_of_hmc(self):
        """Section 7.7: memory-side PCUs ~1.4% of HMC energy.

        With realistic event ratios (one DRAM access per memory-side PEI)
        the PCU share must stay in the low single digits.
        """
        stats = Stats()
        stats.add("dram.pim_reads", 1000)
        stats.add("dram.pim_writes", 1000)
        stats.set("tsv.bytes", 1000 * 128)
        stats.add("pei.mem_executed", 1000)
        breakdown = EnergyModel().compute(stats)
        assert breakdown.mem_pcu_fraction_of_hmc < 0.05
