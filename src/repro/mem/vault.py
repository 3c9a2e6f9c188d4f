"""An HMC vault: DRAM banks behind a TSV vertical link.

Each vault owns its DRAM controller (on the logic die) and, in the PEI
architecture, one memory-side PCU.  The PCU object itself lives in
``repro.core.pcu`` and is attached by the system builder; the vault only
provides the raw read/write timing primitives that both normal memory
accesses and in-memory PEI execution compose.
"""

from typing import List, Optional

from repro.mem.dram import DramBank, DramTimings
from repro.obs.hooks import NULL_OBS
from repro.sim.resource import BandwidthLink


class Vault:
    """One vertical DRAM partition with its own controller and TSV bundle."""

    def __init__(
        self,
        index: int,
        banks_per_vault: int,
        timings: DramTimings,
        tsv_bytes_per_cycle: float,
        controller_latency: float = 8.0,
    ):
        self.index = index
        self.banks: List[DramBank] = [
            DramBank(timings) for _ in range(banks_per_vault)]
        self.tsv = BandwidthLink(f"vault{index}.tsv", tsv_bytes_per_cycle)
        self.controller_latency = controller_latency
        # Attached by the system builder when PEIs are enabled; the vault's
        # memory-side PCU (Section 4.2).
        self.pcu: Optional[object] = None
        # Telemetry sink (null object unless a Telemetry is attached).
        self.obs = NULL_OBS

    def read_block(self, arrival: float, bank: int, row: int, nbytes: int = 64) -> float:
        """Read ``nbytes`` from DRAM and move them across the TSVs.

        Returns the time the data is available on the logic die.
        """
        t = arrival + self.controller_latency
        t = self.banks[bank].access(t, row, is_write=False)
        if self.obs.enabled:
            self.obs.observe("queue.vault_tsv_backlog", self.tsv.backlog)
        return self.tsv.transfer(t, nbytes)

    def write_block(self, arrival: float, bank: int, row: int, nbytes: int = 64) -> float:
        """Move ``nbytes`` across the TSVs and write them into DRAM."""
        if self.obs.enabled:
            self.obs.observe("queue.vault_tsv_backlog", self.tsv.backlog)
        t = self.tsv.transfer(arrival + self.controller_latency, nbytes)
        return self.banks[bank].access(t, row, is_write=True)

    @property
    def dram_accesses(self) -> int:
        return sum(bank.accesses for bank in self.banks)

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self.tsv.reset()
