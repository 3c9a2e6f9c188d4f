"""Interval sampling: a time series of the run's cumulative state.

The engine advances threads in approximate global-time order, so the
sampler hooks the engine loop: whenever the *laggard* thread's time crosses
the next sample boundary, every thread has simulated past that boundary and
a snapshot of the cumulative counters is a faithful (batch-window-blurred)
picture of the machine at that simulated instant.  The final snapshot is
taken at collection time with the same live-gauge overlay ``RunResult``
uses, so its ``stats`` dict equals ``RunResult.stats`` exactly.

Records serialize to JSON Lines (one JSON object per line) next to the
benchmark outputs; ``python -m repro.obs report`` and any external tool
(pandas, jq) consume them directly.
"""

import json
from typing import Dict, List, Optional

from repro.util.fsio import atomic_write_text

__all__ = ["DELTA_COUNTERS", "IntervalSampler", "live_gauges"]

#: Counters whose per-interval deltas are precomputed into each record —
#: the time-varying signals the paper's dynamic claims are about.
DELTA_COUNTERS = (
    "pei.issued",
    "pei.host_executed",
    "pei.mem_executed",
    "dram.reads",
    "dram.writes",
    "dram.pim_reads",
    "dram.pim_writes",
    "offchip.request_bytes",
    "offchip.response_bytes",
)


def live_gauges(machine, cycles: float) -> Dict[str, float]:
    """The gauges ``System._collect`` publishes, read live from the machine.

    Shared by final result collection and interval sampling so a sample at
    collection time matches :attr:`RunResult.stats` exactly.
    """
    channel = machine.hmc.channel
    return {
        "offchip.request_bytes": float(channel.request.bytes_transferred),
        "offchip.response_bytes": float(channel.response.bytes_transferred),
        "tsv.bytes": float(sum(vault.tsv.bytes_transferred
                               for vault in machine.hmc.vaults)),
        "xbar.bytes": float(machine.crossbar.bytes_transferred),
        "runtime.cycles": cycles,
    }


def _derived(machine, t: float, stats: Dict[str, float]) -> Dict[str, float]:
    """Instantaneous/derived signals worth plotting over time."""
    channel = machine.hmc.channel
    host = stats.get("pei.host_executed", 0.0)
    mem = stats.get("pei.mem_executed", 0.0)
    peis = host + mem
    monitor_accesses = stats.get("locality_monitor.accesses", 0.0)
    monitor_hits = stats.get("locality_monitor.host_advice", 0.0)
    host_pcus = machine.host_pcus
    vault_pcus = [vault.pcu for vault in machine.hmc.vaults
                  if vault.pcu is not None]
    out = {
        "pim_fraction": mem / peis if peis else 0.0,
        "monitor_hit_rate": (monitor_hits / monitor_accesses
                             if monitor_accesses else 0.0),
        "offchip_request_flits_ema": channel.req_flits.read(t),
        "offchip_response_flits_ema": channel.res_flits.read(t),
        "offchip_request_utilization": channel.request.utilization(t),
        "offchip_response_utilization": channel.response.utilization(t),
        "host_pcu_utilization": (
            sum(p.compute_logic.utilization(t) for p in host_pcus)
            / len(host_pcus) if host_pcus else 0.0),
        "vault_pcu_utilization": (
            sum(p.compute_logic.utilization(t) for p in vault_pcus)
            / len(vault_pcus) if vault_pcus else 0.0),
        "host_operand_buffer_inflight": float(
            sum(p.operand_buffer.in_flight for p in host_pcus)),
    }
    return out


class IntervalSampler:
    """Snapshots the machine every ``interval`` simulated cycles."""

    def __init__(self, interval: float = 10_000.0):
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self.records: List[Dict] = []
        self._next = interval
        self._prev_stats: Dict[str, float] = {}

    def advance(self, machine, now: float) -> None:
        """Emit samples for every boundary the laggard time passed."""
        while self._next <= now:
            self._sample(machine, self._next)
            self._next += self.interval

    def finalize(self, machine, cycles: float) -> None:
        """Emit the end-of-run cumulative record (matches RunResult.stats)."""
        self._sample(machine, cycles, final=True)

    # ------------------------------------------------------------------

    def _sample(self, machine, t: float, final: bool = False) -> None:
        stats = dict(machine.stats.to_dict())
        stats.update(live_gauges(machine, t))
        delta = {
            name: stats.get(name, 0.0) - self._prev_stats.get(name, 0.0)
            for name in DELTA_COUNTERS
        }
        self._prev_stats = stats
        record = {
            "seq": len(self.records),
            "t": t,
            "final": final,
            "stats": stats,
            "delta": delta,
            "derived": _derived(machine, t, stats),
        }
        self.records.append(record)

    # Serialization -----------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in self.records)

    def write_jsonl(self, path) -> None:
        # The whole series is in memory; publish it atomically so a bundle
        # reader can never observe a half-written stream.
        atomic_write_text(path, self.to_jsonl())

    def last(self) -> Optional[Dict]:
        return self.records[-1] if self.records else None

    def __len__(self) -> int:
        return len(self.records)
