"""Coherence verification: real PMU + cache hierarchy vs. golden cache state.

The directory-level explorer (:mod:`repro.verify.explorer`) proves the lock
protocol; this module proves the *coherence management* side of Section 4.3
on a real machine: for every small schedule, every cache-priming mode, and
every geometry, it drives the actual :class:`~repro.core.pmu.Pmu` and
:class:`~repro.cache.hierarchy.CacheHierarchy` built by
:func:`~repro.system.builder.build_machine` and checks each
``clean_block_for_memory`` against the golden per-block cache-copy /
memory-freshness state (:class:`~repro.verify.golden.GoldenCacheState`):

========  ==========================================================
VER009    clean readiness: memory-side execution may not begin before
          the clean completed; a clean that had to touch the
          hierarchy cannot be free
VER010    copy discipline: back-invalidation leaves no on-chip copy;
          back-writeback preserves exactly the copies it should
VER011    memory freshness: after any clean, no dirty copy of the
          block survives on chip
VER012    hierarchy invariants (inclusion, single-writer) hold after
          every step
VER013    stats divergence: the clean moved the wrong (or no)
          back-invalidation/back-writeback counter vs. golden state
VER014    forced execution side: the dispatch policy the pass sets
          pins each PEI to the host or memory side it asked for
========  ==========================================================

Every replay also assembles the equivalent ``PeiTrace``/``FenceTrace``
stream and runs it through :func:`repro.analysis.simsan.sanitize_events`
with the machine's directory geometry — cross-validating the trace
sanitizer's SAN001–SAN010 rules against the same schedules the explorer
proves, so the two checkers can never silently drift apart.  The
sanitizer owns the timestamp invariants: SAN004 (issue <= decision <=
grant <= completion, and no pfence before its issue) and SAN005 (a pfence
waits for every prior writer) judge this pass's timelines too.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.simsan import sanitize_events
from repro.core.dispatch import DispatchPolicy
from repro.core.isa import HASH_PROBE, INT_INCREMENT, PimOp
from repro.core.tracer import FenceTrace, PeiTrace
from repro.sim.stats import Stats
from repro.system.builder import Machine, build_machine
from repro.system.config import SystemConfig, tiny_config
from repro.verify.explorer import ExploreReport, Violation, times_close
from repro.verify.golden import GoldenCacheState
from repro.verify.schedule import (
    ExploreBounds,
    FenceStep,
    PeiStep,
    Schedule,
    enumerate_schedules,
)

__all__ = [
    "CoherenceGeometry",
    "CoherenceBounds",
    "default_geometries",
    "PRIMES",
    "replay_coherence",
    "run_coherence",
]

#: Writer / reader operations used to drive the PMU (any Table 1 pair works;
#: the protocol keys only on the R/W columns).
WRITER_OP: PimOp = INT_INCREMENT
READER_OP: PimOp = HASH_PROBE

#: Cache priming modes applied before each schedule.
PRIMES: Tuple[str, ...] = ("cold", "shared-clean", "dirty-owner")


@dataclass(frozen=True)
class CoherenceGeometry:
    """One machine shape the coherence schedules replay under."""

    name: str
    config: SystemConfig
    blocks: Tuple[int, ...]  # logical block id -> real block number


def default_geometries() -> Tuple[CoherenceGeometry, ...]:
    """Two miniature machines covering the interesting cache shapes.

    ``snug`` uses blocks 1 and 4, which XOR-fold onto one entry of its
    4-entry directory (tag-less aliasing during coherence traffic);
    ``thrash`` uses a direct-mapped L1 with blocks 1 and 17 colliding in
    one L1 set, so private evictions happen *during* the schedules.
    """
    snug = tiny_config(
        n_cores=2, n_hmcs=1, vaults_per_hmc=2, banks_per_vault=2,
        l1_size=1024, l1_ways=2, l2_size=2048, l2_ways=2,
        l3_size=4096, l3_ways=4, l3_banks=2,
        pim_directory_entries=4, physical_frames=1 << 12,
    )
    thrash = snug.with_overrides(l1_ways=1)
    return (
        CoherenceGeometry("snug", snug, blocks=(1, 4)),
        CoherenceGeometry("thrash", thrash, blocks=(1, 17)),
    )


@dataclass(frozen=True)
class CoherenceBounds:
    """Exploration bound for the (more expensive) full-machine pass."""

    max_peis: int = 3
    durations: Tuple[float, ...] = (5.0,)
    strides: Tuple[float, ...] = (0.0, 31.0)
    #: Schedules start here, safely after every priming access retires.
    base_time: float = 500.0
    geometries: Optional[Tuple[CoherenceGeometry, ...]] = None
    primes: Tuple[str, ...] = PRIMES

    def geometry_cases(self) -> Tuple[CoherenceGeometry, ...]:
        return self.geometries if self.geometries is not None \
            else default_geometries()

    def schedule_bounds(self) -> ExploreBounds:
        return ExploreBounds(
            max_peis=self.max_peis,
            n_blocks=2,
            durations=self.durations,
            strides=self.strides,
        )


def _prime(machine: Machine, geometry: CoherenceGeometry, mode: str,
           golden: Dict[int, GoldenCacheState]) -> None:
    """Install the initial cache population for one priming mode."""
    hierarchy = machine.hierarchy
    if mode == "cold":
        return
    if mode == "shared-clean":
        for t, core in enumerate(range(machine.config.n_cores)):
            for block in geometry.blocks:
                hierarchy.access(core, hierarchy.block_addr(block),
                                 is_write=False, time=float(t))
                golden[block].host_access(is_write=False)
        return
    if mode == "dirty-owner":
        for t, block in enumerate(geometry.blocks):
            hierarchy.access(0, hierarchy.block_addr(block),
                             is_write=True, time=float(t))
            golden[block].host_access(is_write=True)
        return
    raise ValueError(f"unknown priming mode {mode!r}")


def _memory_fresh_on_chip(machine: Machine, block: int) -> bool:
    """No dirty copy of ``block`` survives anywhere in the hierarchy."""
    hierarchy = machine.hierarchy
    if hierarchy.l3.is_dirty(block):
        return False
    for core in range(machine.config.n_cores):
        if hierarchy.l1[core].is_dirty(block) or hierarchy.l2[core].is_dirty(block):
            return False
    return True


@dataclass
class _CoherenceReplay:
    violations: List[Violation] = field(default_factory=list)
    events: List = field(default_factory=list)


def replay_coherence(
    geometry: CoherenceGeometry,
    prime: str,
    sched: Schedule,
    base_time: float,
) -> List[Violation]:
    """Drive one schedule through a real machine; return violations."""
    machine = build_machine(geometry.config, DispatchPolicy.PIM_ONLY)
    golden = {block: GoldenCacheState() for block in geometry.blocks}
    _prime(machine, geometry, prime, golden)
    case_name = f"{geometry.name}/{prime}"
    desc = sched.describe()
    state = _CoherenceReplay()

    def bad(code: str, detail: str) -> None:
        state.violations.append(Violation(
            code=code, case=case_name, schedule=desc, detail=detail))

    for i, step in enumerate(sched.steps):
        issue = base_time + sched.issue(i)
        core = i % machine.config.n_cores
        if isinstance(step, FenceStep):
            release = machine.pmu.fence(issue)
            state.events.append(FenceTrace(core=core, issue_time=issue,
                                           release_time=release))
            continue
        block = geometry.blocks[step.block]
        op = WRITER_OP if step.is_writer else READER_OP
        machine.pmu.policy = (DispatchPolicy.HOST_ONLY if step.on_host
                              else DispatchPolicy.PIM_ONLY)
        grant = machine.pmu.begin_pei(core, block, op, issue)
        if grant.on_host is not step.on_host:
            bad("VER014",
                f"step {i}: forced policy did not pin execution side")
            continue
        clean_time: Optional[float] = None
        if step.on_host:
            result = machine.hierarchy.access(
                core, machine.hierarchy.block_addr(block),
                is_write=step.is_writer, time=grant.decision_time)
            golden[block].host_access(is_write=step.is_writer)
            start = result.finish if result.finish > grant.grant_time \
                else grant.grant_time
            completion = start + step.duration
        else:
            completion, clean_time = _memory_side_step(
                machine, golden, block, op, step, grant, i, bad)
        machine.pmu.finish_pei(grant.entry, op, completion)
        state.events.append(PeiTrace(
            core=core, op=op.mnemonic, block=block, on_host=step.on_host,
            issue_time=issue, grant_time=grant.grant_time,
            completion=completion, decision_time=grant.decision_time,
            clean_time=clean_time,
            clean_invalidate=None if clean_time is None else op.is_writer))
        # VER012: structural invariants must hold after every step.
        broken = machine.hierarchy.check_inclusion()
        if broken:
            bad("VER012", f"step {i}: inclusion violated for blocks {broken}")
        broken = machine.hierarchy.check_single_writer()
        if broken:
            bad("VER012",
                f"step {i}: single-writer violated for blocks {broken}")

    # Cross-validate simsan on the same timeline the checks above passed.
    san = sanitize_events(
        state.events,
        operand_buffer_entries=None,
        directory_entries=machine.directory.entries,
    )
    for violation in san.violations:
        state.violations.append(Violation(
            code=violation.code, case=case_name, schedule=desc,
            detail=violation.message))
    return state.violations


def _memory_side_step(machine, golden, block, op, step, grant, i, bad):
    """One memory-side PEI: clean, then compute; check every obligation."""
    hierarchy = machine.hierarchy
    stats: Stats = machine.stats
    expectation = golden[block].expect_clean(op.is_writer)
    before_inv = stats.get("pmu.back_invalidations")
    before_wb = stats.get("pmu.back_writebacks")
    ready = machine.pmu.clean_block_for_memory(block, op, grant.grant_time)

    # VER009: readiness bounds.
    clean_floor = hierarchy.l3_latency + hierarchy.crossbar.latency
    if ready < grant.grant_time - 1e-9:
        bad("VER009",
            f"step {i}: clean ready at {ready:g} before the grant "
            f"{grant.grant_time:g}")
    if expectation.touches_hierarchy:
        if ready < grant.grant_time + clean_floor - 1e-9:
            bad("VER009",
                f"step {i}: block {block:#x} had an on-chip copy but the "
                f"clean cost only {ready - grant.grant_time:g} (needs at "
                f"least {clean_floor:g})")
    elif not times_close(ready, grant.grant_time):
        bad("VER009",
            f"step {i}: block {block:#x} was absent yet the clean took "
            f"{ready - grant.grant_time:g}")

    # VER010: copy discipline.
    present = hierarchy.present(block)
    if expectation.invalidates and present:
        bad("VER010",
            f"step {i}: block {block:#x} still has an on-chip copy after "
            f"back-invalidation")
    if not expectation.invalidates and present is not expectation.present_after:
        bad("VER010",
            f"step {i}: block {block:#x} present={present} after "
            f"back-writeback, golden state expects "
            f"{expectation.present_after}")

    # VER011: memory freshness.
    if not _memory_fresh_on_chip(machine, block):
        bad("VER011",
            f"step {i}: a dirty copy of block {block:#x} survived the clean")

    # VER013: the right coherence counter moved.
    delta_inv = stats.get("pmu.back_invalidations") - before_inv
    delta_wb = stats.get("pmu.back_writebacks") - before_wb
    expected = expectation.expected_stat()
    if expected is None:
        if delta_inv or delta_wb:
            bad("VER013",
                f"step {i}: clean of absent block {block:#x} moved coherence "
                f"counters (inv+{delta_inv:g}, wb+{delta_wb:g})")
    else:
        moved, untouched = expected
        deltas = {"pmu.back_invalidations": delta_inv,
                  "pmu.back_writebacks": delta_wb}
        if not times_close(deltas[moved], 1.0) or deltas[untouched]:
            bad("VER013",
                f"step {i}: clean of block {block:#x} expected +1 on "
                f"{moved}, saw inv+{delta_inv:g} wb+{delta_wb:g}")

    start = ready if ready > grant.grant_time else grant.grant_time
    return start + step.duration, ready


def run_coherence(bounds: Optional[CoherenceBounds] = None,
                  fail_fast: bool = False) -> ExploreReport:
    """Replay every bounded schedule under every geometry and priming."""
    if bounds is None:
        bounds = CoherenceBounds()
    report = ExploreReport()
    geometries = bounds.geometry_cases()
    for sched in enumerate_schedules(bounds.schedule_bounds()):
        report.schedules += 1
        for geometry in geometries:
            for prime in bounds.primes:
                found = replay_coherence(geometry, prime, sched,
                                         bounds.base_time)
                report.replays += 1
                if found:
                    report.record(found)
                    if fail_fast:
                        return report
    return report
