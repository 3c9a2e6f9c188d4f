"""Results of one simulated run."""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.energy.model import EnergyBreakdown


@dataclass
class RunResult:
    """Metrics the experiments consume, extracted after a run."""

    workload: str
    policy: str
    cycles: float
    instructions: int
    per_core_instructions: List[int]
    stats: Dict[str, float]
    energy: EnergyBreakdown
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics used by the figures
    # ------------------------------------------------------------------

    @property
    def ipc_sum(self) -> float:
        """Sum of per-core IPCs (the Fig. 9 throughput metric)."""
        if self.cycles <= 0:
            return 0.0
        return sum(insts / self.cycles for insts in self.per_core_instructions)

    @property
    def offchip_bytes(self) -> float:
        """Total off-chip transfer (the Fig. 7 metric)."""
        return self.stats.get("offchip.request_bytes", 0.0) + self.stats.get(
            "offchip.response_bytes", 0.0
        )

    @property
    def dram_accesses(self) -> float:
        return (
            self.stats.get("dram.reads", 0.0)
            + self.stats.get("dram.writes", 0.0)
            + self.stats.get("dram.pim_reads", 0.0)
            + self.stats.get("dram.pim_writes", 0.0)
        )

    @property
    def peis_executed(self) -> float:
        return self.stats.get("pei.host_executed", 0.0) + self.stats.get(
            "pei.mem_executed", 0.0
        )

    @property
    def pim_fraction(self) -> float:
        """Fraction of PEIs executed on memory-side PCUs (Fig. 8's 'PIM %')."""
        total = self.peis_executed
        if total == 0:
            return 0.0
        return self.stats.get("pei.mem_executed", 0.0) / total

    def speedup_over(self, baseline: "RunResult") -> float:
        """Performance of this run relative to ``baseline`` (higher=faster)."""
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles

    # ------------------------------------------------------------------
    # Serialization (experiment archiving)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """A JSON-safe dictionary of everything in this result.

        A run's metadata is four scalars (``n_threads``,
        ``max_ops_per_thread``, ``footprint_bytes``, ``config_l3_size``),
        copied as they are.
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "per_core_instructions": list(self.per_core_instructions),
            "stats": dict(self.stats),
            "energy": self.energy.to_dict(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunResult":
        """Rebuild a result saved with :meth:`to_dict`."""
        energy_fields = dict(payload["energy"])
        energy_fields.pop("total_pj", None)
        return cls(
            workload=payload["workload"],
            policy=payload["policy"],
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            per_core_instructions=list(payload["per_core_instructions"]),
            stats=dict(payload["stats"]),
            energy=EnergyBreakdown(**energy_fields),
            metadata=dict(payload.get("metadata", {})),
        )
