"""Tests for the TLB."""

import pytest

from repro.vm.page_table import PageTable
from repro.vm.tlb import Tlb


@pytest.fixture
def tlb():
    return Tlb(PageTable(), entries=2, walk_latency=100.0)


class TestTlb:
    def test_first_access_walks(self, tlb):
        _, latency = tlb.translate(0x10000)
        assert latency == 100.0

    def test_second_access_hits(self, tlb):
        tlb.translate(0x10000)
        _, latency = tlb.translate(0x10008)
        assert latency == 0.0

    def test_translation_matches_page_table(self, tlb):
        paddr, _ = tlb.translate(0x10123)
        assert paddr == tlb.page_table.translate(0x10123)

    def test_lru_eviction(self, tlb):
        tlb.translate(0x10000)
        tlb.translate(0x20000)
        tlb.translate(0x30000)  # evicts page of 0x10000
        _, latency = tlb.translate(0x10000)
        assert latency == 100.0

    def test_lru_promotion(self, tlb):
        tlb.translate(0x10000)
        tlb.translate(0x20000)
        tlb.translate(0x10000)  # promote
        tlb.translate(0x30000)  # evicts page of 0x20000
        _, latency = tlb.translate(0x10000)
        assert latency == 0.0

    def test_flush(self, tlb):
        tlb.translate(0x10000)
        tlb.flush()
        _, latency = tlb.translate(0x10000)
        assert latency == 100.0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            Tlb(PageTable(), entries=0)
