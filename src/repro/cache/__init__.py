"""Inclusive three-level cache hierarchy with MESI-lite coherence.

The hierarchy is functional on tags: it tracks presence, dirtiness, sharers
and the modified owner of every block, produces latencies by composing
crossbar / L3-bank / memory occupancies, and supports the two operations the
PMU needs for memory-side PEI coherence — back-invalidation and
back-writeback of a single block (Section 4.3).
"""

from repro.cache.array import SetAssocArray
from repro.cache.hierarchy import CacheHierarchy

__all__ = ["CacheHierarchy", "SetAssocArray"]
