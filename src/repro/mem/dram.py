"""DRAM bank timing with an open-row policy.

The paper's DRAM controllers are FR-FCFS; our occupancy model approximates
them with per-bank FCFS plus an open-row policy, which preserves the
first-order effect (row hits are cheap, row conflicts pay precharge +
activate) without per-cycle scheduling.
"""

from dataclasses import dataclass

from repro.sim.clock import ClockDomain
from repro.sim.resource import Resource


@dataclass(frozen=True)
class DramTimings:
    """Bank timing parameters in host-core cycles.

    Defaults follow Table 2: tCL = tRCD = tRP = 13.75 ns at a 4 GHz host
    clock (55 cycles each).  ``burst`` is the data-transfer occupancy of a
    64-byte access on the bank's internal bus.
    """

    t_cl: float
    t_rcd: float
    t_rp: float
    burst: float

    @classmethod
    def from_ns(
        cls,
        t_cl_ns: float,
        t_rcd_ns: float,
        t_rp_ns: float,
        burst_ns: float,
        host_freq_ghz: float,
    ) -> "DramTimings":
        """Convert nanosecond timings into host cycles.

        Values intentionally have no defaults: physical-unit constants live
        in :class:`repro.system.config.SystemConfig` (simflow SIM005), so
        callers must pass them from there (see ``from_config``).
        """
        clock = ClockDomain(1.0, host_freq_ghz)
        return cls(
            t_cl=clock.from_ns(t_cl_ns),
            t_rcd=clock.from_ns(t_rcd_ns),
            t_rp=clock.from_ns(t_rp_ns),
            burst=clock.from_ns(burst_ns),
        )

    @classmethod
    def from_config(cls, config) -> "DramTimings":
        """Build from a :class:`~repro.system.config.SystemConfig`'s DRAM
        fields (duck-typed to keep this layer independent of the system
        layer)."""
        return cls.from_ns(
            t_cl_ns=config.dram_t_cl_ns,
            t_rcd_ns=config.dram_t_rcd_ns,
            t_rp_ns=config.dram_t_rp_ns,
            burst_ns=config.dram_burst_ns,
            host_freq_ghz=config.core_freq_ghz,
        )


class DramBank:
    """One DRAM bank: a serialized resource with an open row register."""

    __slots__ = ("timings", "resource", "open_row", "row_hits", "row_misses", "row_conflicts")

    def __init__(self, name: str, timings: DramTimings):
        self.timings = timings
        self.resource = Resource(name)
        self.open_row = None
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0

    def access(self, arrival: float, row: int, is_write: bool = False) -> float:
        """Access ``row``; return the completion time of the data transfer.

        Row hit: tCL.  Closed bank: tRCD + tCL.  Row conflict: tRP + tRCD +
        tCL.  Writes are modelled with the same latency (tCWL ~= tCL); the
        distinction that matters to the experiments is the traffic and
        occupancy, not the exact write latency.
        """
        t = self.timings
        if self.open_row == row:
            latency = t.t_cl
            self.row_hits += 1
        elif self.open_row is None:
            latency = t.t_rcd + t.t_cl
            self.row_misses += 1
        else:
            latency = t.t_rp + t.t_rcd + t.t_cl
            self.row_conflicts += 1
        self.open_row = row
        # Resource.acquire inlined: every DRAM access serializes here.
        occupancy = latency + t.burst
        r = self.resource
        if arrival > r.clock:
            gap = arrival - r.clock
            r.backlog = r.backlog - gap if r.backlog > gap else 0.0
            r.clock = arrival
        start = arrival + r.backlog
        r.backlog += occupancy
        r.busy_cycles += occupancy
        r.served += 1
        return start + occupancy

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses + self.row_conflicts

    def reset(self) -> None:
        self.resource.reset()
        self.open_row = None
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
