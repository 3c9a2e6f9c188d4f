"""Central registry of every statistics key the simulator may emit.

The flat :class:`~repro.sim.stats.Stats` namespace is convenient but
typo-prone: ``stats.add("pei.host_dispatch")`` would silently create a new
counter next to ``pei.host_dispatched`` and every downstream consumer would
read zeros.  This module declares the complete key vocabulary, grouped by
subsystem; simflow's ``SIM007`` rule (:mod:`repro.analysis.flow.lint`)
flags any literal ``stats.add``/``stats.set`` key in ``src/repro`` that is
not declared here.

When adding a new counter: add the key to the matching ``*_KEYS`` group (or
start a new group — any module-level tuple whose name ends in ``_KEYS`` is
picked up), then use it.  Gauges (written through ``Stats.set``) live in
``GAUGE_KEYS``.
"""

from typing import FrozenSet, Tuple

#: Cache hierarchy counters (repro.cache.hierarchy).
CACHE_KEYS: Tuple[str, ...] = (
    "l1.accesses",
    "l1.hits",
    "l2.accesses",
    "l2.hits",
    "l2.writebacks",
    "l3.accesses",
    "l3.hits",
    "l3.misses",
    "l3.writebacks",
)

#: MESI-lite coherence actions (repro.cache.hierarchy).
COHERENCE_KEYS: Tuple[str, ...] = (
    "coherence.invalidations",
    "coherence.cache_to_cache",
    "coherence.back_invalidations",
)

#: PMU coherence management for memory-side PEIs (repro.cache.hierarchy).
PMU_KEYS: Tuple[str, ...] = (
    "pmu.back_invalidations",
    "pmu.back_writebacks",
)

#: DRAM accesses, host and PIM paths (repro.mem.hmc).
DRAM_KEYS: Tuple[str, ...] = (
    "dram.reads",
    "dram.writes",
    "dram.pim_reads",
    "dram.pim_writes",
)

#: Off-chip link traffic (repro.mem.hmc, repro.mem.link).
OFFCHIP_KEYS: Tuple[str, ...] = (
    "offchip.read_packets",
    "offchip.write_packets",
    "offchip.pim_requests",
    "offchip.pim_responses",
)

#: Host core instruction mix (repro.cpu.core).
CORE_KEYS: Tuple[str, ...] = (
    "core.loads",
    "core.stores",
)

#: Locality monitor behaviour (repro.core.locality_monitor).
LOCALITY_MONITOR_KEYS: Tuple[str, ...] = (
    "locality_monitor.evictions",
    "locality_monitor.accesses",
    "locality_monitor.miss_advice",
    "locality_monitor.ignored_first_hits",
    "locality_monitor.host_advice",
)

#: PEI dispatch and execution (repro.core.pmu, repro.core.executor).
PEI_KEYS: Tuple[str, ...] = (
    "pei.host_dispatched",
    "pei.mem_dispatched",
    "pei.balanced_host_overrides",
    "pei.pfences",
    "pei.issued",
    "pei.operand_buffer_stall_cycles",
    "pei.host_executed",
    "pei.mem_executed",
)

#: PIM directory occupancy (repro.core.pim_directory).
PIM_DIRECTORY_KEYS: Tuple[str, ...] = (
    "pim_directory.accesses",
    "pim_directory.conflicts",
    "pim_directory.wait_cycles",
)

#: Gauges: byte totals read off the links at collection time and runtimes
#: (written through Stats.set, merged by max — see repro.sim.stats).
GAUGE_KEYS: Tuple[str, ...] = (
    "offchip.request_bytes",
    "offchip.response_bytes",
    "tsv.bytes",
    "xbar.bytes",
    "runtime.cycles",
)

#: Every declared counter key.
STAT_KEYS: FrozenSet[str] = frozenset(
    CACHE_KEYS + COHERENCE_KEYS + PMU_KEYS + DRAM_KEYS + OFFCHIP_KEYS
    + CORE_KEYS + LOCALITY_MONITOR_KEYS + PEI_KEYS + PIM_DIRECTORY_KEYS
)

#: Counters and gauges together.
ALL_KEYS: FrozenSet[str] = STAT_KEYS | frozenset(GAUGE_KEYS)


def is_declared(key: str) -> bool:
    """Is ``key`` part of the registered stats vocabulary?"""
    return key in ALL_KEYS


# ----------------------------------------------------------------------
# Slot registry: the batched counter fast path
# ----------------------------------------------------------------------
#
# The engine's per-op hot loops (cache hierarchy, cores, PEI executor, PMU,
# HMC) charge counters millions of times per run; a string-keyed dict update
# per event is the single largest Stats cost.  Each counter key below owns a
# fixed index into ``Stats.slots`` (a plain list of floats); hot components
# bind the list once at construction and do ``slots[SLOT_X] += 1.0`` inline.
# The slots are folded back into the flat named-counter namespace by
# ``Stats.flush_slots`` (and transparently by every read API), so consumers
# never see the split.  Gauges are excluded: they are written once through
# ``Stats.set`` at collection time.
#
# simflow's ``FLW009`` rule flags any ``stats.add`` call on the replay path
# (inside the engine loops or reachable from them), keeping the fast path
# load-bearing.

#: Counter keys batched through the slot fast path, in slot-index order.
SLOT_KEYS: Tuple[str, ...] = (
    CACHE_KEYS + COHERENCE_KEYS + PMU_KEYS + DRAM_KEYS + OFFCHIP_KEYS
    + CORE_KEYS + LOCALITY_MONITOR_KEYS + PEI_KEYS + PIM_DIRECTORY_KEYS
)

#: Key -> slot index.
SLOT_INDEX = {key: index for index, key in enumerate(SLOT_KEYS)}

#: Number of slots in ``Stats.slots``.
N_SLOTS: int = len(SLOT_KEYS)

# Named indices for the hot components (one constant per slot counter).
SLOT_L1_ACCESSES = SLOT_INDEX["l1.accesses"]
SLOT_L1_HITS = SLOT_INDEX["l1.hits"]
SLOT_L2_ACCESSES = SLOT_INDEX["l2.accesses"]
SLOT_L2_HITS = SLOT_INDEX["l2.hits"]
SLOT_L2_WRITEBACKS = SLOT_INDEX["l2.writebacks"]
SLOT_L3_ACCESSES = SLOT_INDEX["l3.accesses"]
SLOT_L3_HITS = SLOT_INDEX["l3.hits"]
SLOT_L3_MISSES = SLOT_INDEX["l3.misses"]
SLOT_L3_WRITEBACKS = SLOT_INDEX["l3.writebacks"]
SLOT_COHERENCE_INVALIDATIONS = SLOT_INDEX["coherence.invalidations"]
SLOT_COHERENCE_CACHE_TO_CACHE = SLOT_INDEX["coherence.cache_to_cache"]
SLOT_COHERENCE_BACK_INVALIDATIONS = SLOT_INDEX["coherence.back_invalidations"]
SLOT_PMU_BACK_INVALIDATIONS = SLOT_INDEX["pmu.back_invalidations"]
SLOT_PMU_BACK_WRITEBACKS = SLOT_INDEX["pmu.back_writebacks"]
SLOT_DRAM_READS = SLOT_INDEX["dram.reads"]
SLOT_DRAM_WRITES = SLOT_INDEX["dram.writes"]
SLOT_DRAM_PIM_READS = SLOT_INDEX["dram.pim_reads"]
SLOT_DRAM_PIM_WRITES = SLOT_INDEX["dram.pim_writes"]
SLOT_OFFCHIP_READ_PACKETS = SLOT_INDEX["offchip.read_packets"]
SLOT_OFFCHIP_WRITE_PACKETS = SLOT_INDEX["offchip.write_packets"]
SLOT_OFFCHIP_PIM_REQUESTS = SLOT_INDEX["offchip.pim_requests"]
SLOT_OFFCHIP_PIM_RESPONSES = SLOT_INDEX["offchip.pim_responses"]
SLOT_CORE_LOADS = SLOT_INDEX["core.loads"]
SLOT_CORE_STORES = SLOT_INDEX["core.stores"]
SLOT_LOCALITY_MONITOR_EVICTIONS = SLOT_INDEX["locality_monitor.evictions"]
SLOT_LOCALITY_MONITOR_ACCESSES = SLOT_INDEX["locality_monitor.accesses"]
SLOT_LOCALITY_MONITOR_MISS_ADVICE = SLOT_INDEX["locality_monitor.miss_advice"]
SLOT_LOCALITY_MONITOR_IGNORED_FIRST_HITS = SLOT_INDEX[
    "locality_monitor.ignored_first_hits"]
SLOT_LOCALITY_MONITOR_HOST_ADVICE = SLOT_INDEX["locality_monitor.host_advice"]
SLOT_PEI_HOST_DISPATCHED = SLOT_INDEX["pei.host_dispatched"]
SLOT_PEI_MEM_DISPATCHED = SLOT_INDEX["pei.mem_dispatched"]
SLOT_PEI_BALANCED_HOST_OVERRIDES = SLOT_INDEX["pei.balanced_host_overrides"]
SLOT_PEI_PFENCES = SLOT_INDEX["pei.pfences"]
SLOT_PEI_ISSUED = SLOT_INDEX["pei.issued"]
SLOT_PEI_OPERAND_BUFFER_STALL_CYCLES = SLOT_INDEX[
    "pei.operand_buffer_stall_cycles"]
SLOT_PEI_HOST_EXECUTED = SLOT_INDEX["pei.host_executed"]
SLOT_PEI_MEM_EXECUTED = SLOT_INDEX["pei.mem_executed"]
SLOT_PIM_DIRECTORY_ACCESSES = SLOT_INDEX["pim_directory.accesses"]
SLOT_PIM_DIRECTORY_CONFLICTS = SLOT_INDEX["pim_directory.conflicts"]
SLOT_PIM_DIRECTORY_WAIT_CYCLES = SLOT_INDEX["pim_directory.wait_cycles"]
