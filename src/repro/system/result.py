"""Results of one simulated run."""

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.energy.model import EnergyBreakdown

#: Sentinel for metadata entries with no JSON representation.
_DROP = object()


def _jsonify_metadata(value):
    """A JSON-safe copy of ``value``, or ``_DROP`` if not representable.

    Scalars pass through; lists/tuples and string-keyed dicts are preserved
    recursively as long as every leaf is a scalar (a workload's per-thread
    op counts, a config sweep's knob dict).  Anything else — objects, numpy
    arrays, non-string keys — is dropped rather than serialized lossily.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        items = [_jsonify_metadata(v) for v in value]
        if any(item is _DROP for item in items):
            return _DROP
        return items
    if isinstance(value, dict):
        out = {}
        for key, entry in value.items():
            if not isinstance(key, str):
                return _DROP
            safe = _jsonify_metadata(entry)
            if safe is _DROP:
                return _DROP
            out[key] = safe
        return out
    return _DROP


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

        Metadata entries keep JSON-representable structure (scalars plus
        nested lists/dicts of scalars); entries with no JSON form are
        dropped rather than serialized lossily.  Keys starting with ``_``
        are harness-transient annotations (e.g. the plan-cache delta a
        replay observed) that depend on scheduling history, not on the
        simulated run — they are excluded so serialized results stay
        bit-identical across serial/parallel runs and replay engines.
        """
        metadata = {}
        for key, value in self.metadata.items():
            if key.startswith("_"):
                continue
            safe = _jsonify_metadata(value)
            if safe is not _DROP:
                metadata[key] = safe
        return {
            "workload": self.workload,
            "policy": self.policy,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "per_core_instructions": list(self.per_core_instructions),
            "stats": dict(self.stats),
            "energy": self.energy.to_dict(),
            "metadata": metadata,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

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

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
