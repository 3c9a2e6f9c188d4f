"""Deeper tests of workload-internal mechanisms: frontier caching, round
bookkeeping, hash-table geometry, partition cursor math, chunk schedules."""

from collections import Counter
from typing import Dict, List

import numpy as np
import pytest

from repro.cpu.trace import capture_trace
from repro.util.rng import make_rng
from repro.vm.address_space import AddressSpace
from repro.workloads.analytics.hash_join import (
    KEYS_PER_NODE,
    NODE_BYTES,
    HashJoin,
    bucket_hash,
)
from repro.workloads.analytics.radix_partition import RadixPartition
from repro.workloads.base import ThreadChunks
from repro.workloads.graph.bfs import BreadthFirstSearch
from repro.workloads.graph.graph import CsrGraph
from repro.workloads.graph.layout import GraphLayout, GraphWorkloadBase
from repro.workloads.graph.sssp import SingleSourceShortestPath
from repro.workloads.registry import make_workload


class TestThreadChunks:
    def test_covers_everything_once(self):
        chunks = ThreadChunks(103, 8)
        seen = []
        for t in range(8):
            seen.extend(chunks.range(t))
        assert seen == list(range(103))

    def test_balanced_within_one(self):
        chunks = ThreadChunks(103, 8)
        sizes = [chunks.end(t) - chunks.start(t) for t in range(8)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_threads_than_items(self):
        chunks = ThreadChunks(2, 8)
        total = sum(len(chunks.range(t)) for t in range(8))
        assert total == 2

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ThreadChunks(10, 0)
        with pytest.raises(ValueError):
            ThreadChunks(-1, 4)


class TestGraphLayout:
    def make(self):
        graph = CsrGraph.from_edges(4, [0, 1], [1, 2],
                                    weights=np.array([3, 4]))
        space = AddressSpace()
        return GraphLayout(space, graph, ("level",)), space

    def test_regions_allocated(self):
        layout, space = self.make()
        assert "graph.indptr" in space.regions
        assert "graph.indices" in space.regions
        assert "graph.weights" in space.regions
        assert "prop.level" in space.regions

    def test_addresses_are_8_byte_strided(self):
        layout, _ = self.make()
        assert layout.prop_addr("level", 1) - layout.prop_addr("level", 0) == 8
        assert layout.edge_addr(1) - layout.edge_addr(0) == 8
        assert layout.indptr_addr(2) - layout.indptr_addr(0) == 16

    def test_addresses_within_regions(self):
        layout, space = self.make()
        region = space.regions["prop.level"]
        for v in range(4):
            assert region.base <= layout.prop_addr("level", v) < region.end


class TestBfsInternals:
    def make(self):
        # 0 -> 1 -> 2, 0 -> 3
        graph = CsrGraph.from_edges(5, [0, 1, 0], [1, 2, 3])
        w = BreadthFirstSearch(graph=graph, source=0)
        w.prepare(AddressSpace())
        return w

    def test_frontier_cache_by_depth(self):
        w = self.make()
        assert list(w._frontier(0)) == [0]
        # Simulate discovering depth-1 vertices.
        w.level[1] = 1
        w.level[3] = 1
        assert sorted(w._frontier(1)) == [1, 3]
        # Cached: later level changes do not alter an already-built frontier.
        w.level[4] = 1
        assert sorted(w._frontier(1)) == [1, 3]

    def test_empty_frontier_terminates(self):
        w = self.make()
        assert len(w._frontier(7)) == 0


class TestSsspInternals:
    def test_active_set_round_bookkeeping(self):
        graph = CsrGraph.from_edges(3, [0, 1], [1, 2],
                                    weights=np.array([5, 5]))
        w = SingleSourceShortestPath(graph=graph, source=0)
        w.prepare(AddressSpace())
        assert list(w._active_for(0)) == [0]
        w.distance[1] = 5
        w._changed_round[1] = 1
        assert list(w._active_for(1)) == [1]
        # Cached.
        w._changed_round[2] = 1
        assert list(w._active_for(1)) == [1]


class TestHashJoinGeometry:
    def test_bucket_count_is_power_of_two_with_headroom(self):
        w = HashJoin(build_rows=1000, probe_rows=10)
        w.prepare(AddressSpace())
        assert w.n_buckets & (w.n_buckets - 1) == 0
        assert w.n_buckets * KEYS_PER_NODE >= 2 * w.build_rows

    def test_every_build_key_findable(self):
        w = HashJoin(build_rows=500, probe_rows=10, seed=3)
        w.prepare(AddressSpace())
        for key in w.r_keys[:100]:
            chain = w._chain_for(int(key))
            b = bucket_hash(int(key), w._bucket_mask)
            # The probe stops at the node holding the key, inside the chain.
            assert len(chain) - 1 == w._key_rank[int(key)] // KEYS_PER_NODE
            assert chain == w._bucket_nodes(b)[:len(chain)]

    def test_chain_nodes_hold_at_most_four_keys(self):
        w = HashJoin(build_rows=500, probe_rows=10)
        w.prepare(AddressSpace())
        ranks: Dict[int, List[int]] = {}
        for key in w.r_keys.tolist():
            ranks.setdefault(bucket_hash(key, w._bucket_mask), []).append(
                w._key_rank[key])
        for b, bucket_ranks in ranks.items():
            # Ranks number a bucket's keys 0..count-1, four to a node.
            assert sorted(bucket_ranks) == list(range(len(bucket_ranks)))
            per_node = Counter(r // KEYS_PER_NODE for r in bucket_ranks)
            assert max(per_node.values()) <= KEYS_PER_NODE
            assert len(w._bucket_nodes(b)) == len(per_node)

    def test_node_addresses_block_aligned_and_unique(self):
        w = HashJoin(build_rows=500, probe_rows=10)
        w.prepare(AddressSpace())
        addrs = [a for b in range(w.n_buckets) for a in w._bucket_nodes(b)]
        assert len(addrs) == len(set(addrs))
        assert all(a % 64 == 0 for a in addrs)


class DictChainHashJoin(HashJoin):
    """Reference: the original dict-of-lists chain build and probe."""

    def prepare(self, space) -> None:
        self.space = space
        rng = make_rng(self.seed, "hj")
        self.r_keys = rng.permutation(self.build_rows * 2)[: self.build_rows].astype(
            np.int64
        )
        self.s_keys = rng.integers(0, self.build_rows * 2, size=self.probe_rows).astype(
            np.int64
        )
        self._r_keyset = set(int(k) for k in self.r_keys)
        n_buckets = 1
        while n_buckets * KEYS_PER_NODE < self.build_rows * 2:
            n_buckets *= 2
        self.n_buckets = n_buckets
        buckets = space.alloc("hj.buckets", n_buckets * NODE_BYTES)
        chains: Dict[int, List[List[int]]] = {}
        mask = n_buckets - 1
        for key in self.r_keys:
            b = bucket_hash(int(key), mask)
            nodes = chains.setdefault(b, [[]])
            if len(nodes[-1]) >= KEYS_PER_NODE:
                nodes.append([])
            nodes[-1].append(int(key))
        n_overflow = sum(max(0, len(nodes) - 1) for nodes in chains.values())
        overflow = space.alloc("hj.overflow", max(1, n_overflow) * NODE_BYTES)
        space.alloc("hj.probe_keys", self.probe_rows * 8)
        self._node_addrs: Dict[int, List[int]] = {}
        self._node_keys: Dict[int, List[List[int]]] = {}
        next_overflow = 0
        for b, nodes in chains.items():
            addrs = [buckets.base + b * NODE_BYTES]
            for _ in nodes[1:]:
                addrs.append(overflow.base + next_overflow * NODE_BYTES)
                next_overflow += 1
            self._node_addrs[b] = addrs
            self._node_keys[b] = nodes
        self._bucket_mask = mask
        self._buckets_base = buckets.base
        self.matches = 0

    def _chain_for(self, key: int) -> List[int]:
        b = bucket_hash(key, self._bucket_mask)
        addrs = self._node_addrs.get(b)
        if addrs is None:
            return [self._buckets_base + b * NODE_BYTES]
        visited = []
        for addr, keys in zip(addrs, self._node_keys[b]):
            visited.append(addr)
            if key in keys:
                return visited
        return visited


class TestHashJoinMatchesDictChains:
    @pytest.mark.parametrize("size, seed", [("small", 1), ("small", 42),
                                            ("medium", 42)])
    def test_chains_and_regions(self, size, seed):
        fast = make_workload("HJ", size, seed=seed)
        slow = DictChainHashJoin(fast.build_rows, fast.probe_rows, seed=seed)
        fast_space, slow_space = AddressSpace(), AddressSpace()
        fast.prepare(fast_space)
        slow.prepare(slow_space)
        assert fast_space.regions == slow_space.regions
        for key in range(-1, 2 * fast.build_rows + 1):
            assert fast._chain_for(key) == slow._chain_for(key)

    @pytest.mark.parametrize("size", ["small", "medium"])
    def test_captured_trace(self, size):
        fast = make_workload("HJ", size, seed=1)
        slow = DictChainHashJoin(fast.build_rows, fast.probe_rows, seed=1)
        assert capture_trace(fast, 4, 1500).fingerprint == \
            capture_trace(slow, 4, 1500).fingerprint


class TestRadixPartitionCursors:
    def test_cursor_plan_is_exclusive_prefix_sum(self):
        w = RadixPartition(n_rows=1024, passes=1, seed=6)
        w.prepare(AddressSpace())
        threads = w.make_threads(4)
        # Exhaust generators to fill the output.
        for gen in threads:
            for _ in gen:
                pass
        # Every row landed exactly once.
        assert sorted(w.output) == sorted(w.keys)


class TestGraphBaseChunking:
    def test_chunk_of_partitions_array(self):
        items = np.arange(10)
        parts = [GraphWorkloadBase.chunk_of(items, t, 3) for t in range(3)]
        assert np.concatenate(parts).tolist() == list(range(10))
