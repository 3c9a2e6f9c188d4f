"""Hash Join (Section 5.2).

Builds a chained hash table from relation R (the skipped initialization
phase) and probes it with keys from relation S.  Each chain hop is the
paper's *hash table probing* PEI: it checks the keys of one bucket node and
returns the match result plus the next node address (9 output bytes).  The
software unrolls four independent probes per loop iteration so the
out-of-order core overlaps their dependent PEI chains — modelled with the
``chain`` tag of :class:`repro.cpu.trace.Pei`.
"""

from typing import List

import numpy as np

from repro.core.isa import HASH_PROBE
from repro.cpu.trace import Barrier, Compute, Pei
from repro.util.rng import make_rng
from repro.workloads.base import ThreadChunks, Workload

NODE_BYTES = 64  # one bucket node per cache block
KEYS_PER_NODE = 4  # 4 keys + 4 payloads + next pointer per 64-byte node
UNROLL = 4  # independent probe chains per loop iteration
_HASH_MULT = 0x9E3779B97F4A7C15


def bucket_hash(key: int, mask: int) -> int:
    return ((key * _HASH_MULT) >> 17) & mask


class HashJoin(Workload):
    """Build-and-probe hash join; probes are chained hash-probe PEIs."""

    name = "HJ"

    def __init__(self, build_rows: int = 4096, probe_rows: int = 16384, seed: int = 42):
        super().__init__(seed=seed)
        if build_rows <= 0 or probe_rows <= 0:
            raise ValueError("relation sizes must be positive")
        self.build_rows = build_rows
        self.probe_rows = probe_rows
        self.matches = 0

    def prepare(self, space) -> None:
        self.space = space
        rng = make_rng(self.seed, "hj")
        # Unique build keys; probe keys hit ~50% of the time.
        self.r_keys = rng.permutation(self.build_rows * 2)[: self.build_rows].astype(
            np.int64
        )
        self.s_keys = rng.integers(0, self.build_rows * 2, size=self.probe_rows).astype(
            np.int64
        )
        self._r_keyset = set(self.r_keys.tolist())
        # Hash-table geometry: ~2 keys per bucket before chaining.
        n_buckets = 1
        while n_buckets * KEYS_PER_NODE < self.build_rows * 2:
            n_buckets *= 2
        self.n_buckets = n_buckets
        buckets = space.alloc("hj.buckets", n_buckets * NODE_BYTES)
        # Build the chains functionally (initialization is not simulated).
        # Keys fill their bucket's nodes in insertion order, KEYS_PER_NODE
        # to a node, so a key lives in node ``rank // KEYS_PER_NODE`` of its
        # bucket, where ``rank`` counts the earlier keys of that bucket.
        # The hash keeps bits 17.. of the product, which depend only on
        # its low 64 bits: uint64's wraparound multiply is exact for them.
        mask = n_buckets - 1
        product = self.r_keys.astype(np.uint64) * np.uint64(_HASH_MULT)
        bucket = ((product >> np.uint64(17)) & np.uint64(mask)).astype(np.int64)
        order = np.argsort(bucket, kind="stable")
        counts = np.bincount(bucket, minlength=n_buckets)
        starts = np.cumsum(counts) - counts
        rank = np.empty(self.build_rows, dtype=np.int64)
        rank[order] = np.arange(self.build_rows) - starts[bucket[order]]
        # Overflow nodes are numbered bucket by bucket, in the order the
        # buckets received their first key; the stable sort puts each
        # bucket's first key at its start.
        occupied = np.flatnonzero(counts)
        by_first_key = occupied[np.argsort(order[starts[occupied]])]
        n_overflow = (counts[by_first_key] - 1) // KEYS_PER_NODE
        overflow_index = np.zeros(n_buckets, dtype=np.int64)
        overflow_index[by_first_key] = np.cumsum(n_overflow) - n_overflow
        overflow = space.alloc("hj.overflow",
                               max(1, int(n_overflow.sum())) * NODE_BYTES)
        space.alloc("hj.probe_keys", self.probe_rows * 8)
        key_rank = np.full(self.build_rows * 2, -1, dtype=np.int64)
        key_rank[self.r_keys] = rank
        self._key_rank = key_rank.tolist()
        self._bucket_count = counts.tolist()
        self._overflow_index = overflow_index.tolist()
        self._bucket_mask = mask
        self._buckets_base = buckets.base
        self._overflow_base = overflow.base
        self.matches = 0

    def _bucket_nodes(self, b: int) -> List[int]:
        """Addresses of bucket ``b``'s nodes: its head, then its overflow."""
        head = self._buckets_base + b * NODE_BYTES
        count = self._bucket_count[b]
        if count <= KEYS_PER_NODE:
            return [head]
        first = self._overflow_base + self._overflow_index[b] * NODE_BYTES
        end = first + (count - 1) // KEYS_PER_NODE * NODE_BYTES
        return [head, *range(first, end, NODE_BYTES)]

    def _chain_for(self, key: int) -> List[int]:
        """Node addresses a probe of ``key`` visits (stops at the match).

        A miss reads every node of the bucket; an empty bucket still reads
        its head node.
        """
        nodes = self._bucket_nodes(bucket_hash(key, self._bucket_mask))
        rank = self._key_rank[key] if 0 <= key < len(self._key_rank) else -1
        return nodes if rank < 0 else nodes[:rank // KEYS_PER_NODE + 1]

    def make_threads(self, n_threads: int):
        return [self._thread(t, n_threads) for t in range(n_threads)]

    def _thread(self, thread: int, n_threads: int):
        chunks = ThreadChunks(self.probe_rows, n_threads)
        keys = self.s_keys
        r_keyset = self._r_keyset
        indices = list(chunks.range(thread))
        for group_start in range(0, len(indices), UNROLL):
            group = indices[group_start:group_start + UNROLL]
            yield Compute(3 * len(group))  # hash computation per probe
            chains = [self._chain_for(int(keys[i])) for i in group]
            positions = [0] * len(chains)
            remaining = sum(len(c) for c in chains)
            while remaining:
                for c, chain_nodes in enumerate(chains):
                    if positions[c] < len(chain_nodes):
                        # Dependent hop of probe c; independent of other
                        # probes, so the four chains overlap.
                        yield Pei(HASH_PROBE, chain_nodes[positions[c]], chain=c)
                        positions[c] += 1
                        remaining -= 1
                yield Compute(2)
            for i in group:
                if int(keys[i]) in r_keyset:
                    self.matches += 1
        yield Barrier()

    def verify(self) -> None:
        expected = int(np.isin(self.s_keys, self.r_keys).sum())
        if expected != self.matches:
            raise AssertionError(
                f"hash join found {self.matches} matches, expected {expected}"
            )
