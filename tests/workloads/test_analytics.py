"""Functional tests for the in-memory data analytics workloads."""

import numpy as np
import pytest

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import HASH_PROBE, HISTOGRAM_BIN
from repro.cpu.trace import KIND_PEI
from repro.system.config import tiny_config
from repro.system.system import System
from repro.vm.address_space import AddressSpace
from repro.workloads.analytics.hash_join import (
    KEYS_PER_NODE,
    HashJoin,
    bucket_hash,
)
from repro.workloads.analytics.histogram import Histogram
from repro.workloads.analytics.radix_partition import RadixPartition


def run(workload, policy=DispatchPolicy.LOCALITY_AWARE):
    system = System(tiny_config(), policy)
    result = system.run(workload)
    return system, result


class TestHashJoin:
    def test_verify_small(self):
        w = HashJoin(build_rows=256, probe_rows=512, seed=9)
        run(w)
        w.verify()

    def test_verify_under_pim_only(self):
        w = HashJoin(build_rows=256, probe_rows=512, seed=9)
        run(w, DispatchPolicy.PIM_ONLY)
        w.verify()

    def test_match_rate_near_half(self):
        # Probe keys are drawn over twice the build key range.
        w = HashJoin(build_rows=512, probe_rows=2048, seed=3)
        run(w)
        assert 0.3 < w.matches / w.probe_rows < 0.7

    def test_bucket_hash_within_mask(self):
        for key in (0, 1, 123456789):
            assert 0 <= bucket_hash(key, 1023) <= 1023

    def test_probe_peis_chained(self):
        w = HashJoin(build_rows=128, probe_rows=64)
        w.prepare(AddressSpace())
        peis = [op for op in w.make_threads(1)[0] if op.kind == KIND_PEI]
        assert peis
        assert all(op.op is HASH_PROBE for op in peis)
        assert all(op.chain is not None for op in peis)

    def test_chains_stop_at_match(self):
        w = HashJoin(build_rows=128, probe_rows=1)
        w.prepare(AddressSpace())
        key = int(w.s_keys[0])
        chain = w._chain_for(key)
        nodes = w._bucket_nodes(bucket_hash(key, w._bucket_mask))
        if key in w._r_keyset:
            # The last node visited holds the key: node rank // 4 of its
            # bucket, counting insertions.
            assert chain == nodes[:w._key_rank[key] // KEYS_PER_NODE + 1]
        else:
            assert chain == nodes  # a miss reads the whole bucket

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            HashJoin(build_rows=0)


class TestHistogram:
    def test_verify(self):
        w = Histogram(n_values=5000, seed=4)
        run(w)
        w.verify()

    def test_bins_sum_to_input_count(self):
        w = Histogram(n_values=5000)
        run(w)
        assert w.histogram.sum() == 5000

    def test_one_pei_per_block(self):
        w = Histogram(n_values=1024)
        w.prepare(AddressSpace())
        threads = w.make_threads(2)
        peis = [op for g in threads for op in g if op.kind == KIND_PEI]
        assert len(peis) == w.n_blocks
        assert all(op.op is HISTOGRAM_BIN for op in peis)

    def test_pei_addresses_block_aligned(self):
        w = Histogram(n_values=1024)
        w.prepare(AddressSpace())
        for op in w.make_threads(1)[0]:
            if op.kind == KIND_PEI:
                assert op.addr % 64 == 0

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError):
            Histogram(n_values=100, shift=30)
        with pytest.raises(ValueError):
            Histogram(n_values=0)


class TestRadixPartition:
    def test_verify(self):
        w = RadixPartition(n_rows=2048, passes=2, seed=5)
        run(w)
        w.verify()

    def test_verify_under_pim_only(self):
        w = RadixPartition(n_rows=2048, passes=1, seed=5)
        run(w, DispatchPolicy.PIM_ONLY)
        w.verify()

    def test_output_is_permutation_of_input(self):
        w = RadixPartition(n_rows=1024, passes=1)
        run(w)
        assert sorted(w.output) == sorted(w.keys)

    def test_partitions_are_contiguous_and_ordered(self):
        w = RadixPartition(n_rows=1024, passes=1)
        run(w)
        bins = w._bins(w.output)
        assert (np.diff(bins) >= 0).all()

    def test_passes_multiply_peis(self):
        counts = []
        for passes in (1, 2):
            w = RadixPartition(n_rows=512, passes=passes)
            _, result = run(w)
            counts.append(result.stats["pei.issued"])
        assert counts[1] == 2 * counts[0]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RadixPartition(n_rows=0)
        with pytest.raises(ValueError):
            RadixPartition(n_rows=16, passes=0)
