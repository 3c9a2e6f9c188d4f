"""System configuration (the knobs of Table 2 plus the PEI hardware).

Three presets:

* :func:`paper_config` — the literal Table 2 machine (16 MB L3, 32 GB of
  HMC memory).  Used to assert the configuration against the paper; too
  large to be exercised at full scale by a Python timing model.
* :func:`scaled_config` — the default for experiments: the same organization
  with capacities scaled down 16x (1 MB L3) so that the scaled-down
  workload inputs of the registry reproduce the paper's locality regimes.
* :func:`tiny_config` — a 4-core miniature for unit/integration tests.

Latencies and bandwidths are *not* scaled — only capacities are — because
the paper's effects live in the footprint/capacity ratio, not in absolute
sizes.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Tuple

from repro.util.bitops import is_power_of_two

#: ``SystemConfig.fingerprint`` memo, keyed by value: requests resolve a
#: fresh but equal config per simulation point, so an instance memo would
#: never hit.  Each field's type joins the key because ``4 == 4.0`` while
#: the two serialize (and so fingerprint) differently.
_FINGERPRINTS: Dict[Tuple, str] = {}


@dataclass(frozen=True)
class SystemConfig:
    """Every hardware parameter of the simulated machine.

    Times are host-core cycles (4 GHz) unless suffixed ``_ns`` or ``_ghz``;
    bandwidths are bytes per host-core cycle.
    """

    # Cores (Table 2: 16 out-of-order cores, 4 GHz, 4-issue)
    n_cores: int = 16
    core_freq_ghz: float = 4.0
    issue_width: int = 4
    core_mlp: int = 16  # outstanding memory ops (L1 MSHRs)

    # Caches (Table 2 organization; capacities scaled in presets)
    block_size: int = 64
    l1_size: int = 16 * 1024
    l1_ways: int = 8
    l1_latency: float = 4.0
    l2_size: int = 64 * 1024
    l2_ways: int = 8
    l2_latency: float = 12.0
    l3_size: int = 1024 * 1024
    l3_ways: int = 16
    l3_latency: float = 30.0
    l3_banks: int = 8
    l3_bank_occupancy: float = 2.0
    cache_to_cache_penalty: float = 20.0
    cache_replacement_policy: str = "lru"  # "lru" | "fifo" | "random"

    # On-chip network (Table 2: crossbar, 2 GHz, 144-bit links)
    xbar_bytes_per_cycle: float = 9.0  # 18 B/2 GHz-cycle = 9 B/host-cycle
    xbar_latency: float = 6.0

    # Main memory (Table 2: 32 GB, 8 HMCs, 80 GB/s full-duplex chain)
    n_hmcs: int = 8
    vaults_per_hmc: int = 16
    banks_per_vault: int = 16  # Table 2: 256 DRAM banks per HMC
    dram_row_bytes: int = 2048
    dram_t_cl_ns: float = 13.75
    dram_t_rcd_ns: float = 13.75
    dram_t_rp_ns: float = 13.75
    dram_burst_ns: float = 4.0
    memory_controller_latency: float = 8.0
    tsv_bytes_per_cycle: float = 4.0  # 64 TSVs x 2 Gb/s = 16 GB/s per vault
    # Table 2: "daisy-chain (80 GB/s full-duplex)" — read as 80 GB/s of
    # aggregate chain bandwidth, i.e. 40 GB/s per direction (10 B per
    # 4 GHz host cycle each way).
    offchip_request_bytes_per_cycle: float = 10.0
    offchip_response_bytes_per_cycle: float = 10.0
    packet_header_bytes: int = 16
    flit_bytes: int = 16
    serdes_latency: float = 16.0
    # Opt-in: model the daisy chain hop-by-hop (cube position matters)
    # instead of as its bottleneck host-side hop.
    model_chain_hops: bool = False
    chain_hop_latency: float = 4.0

    # Virtual memory
    page_size: int = 4096
    physical_frames: int = 1 << 18  # 1 GB of physical memory at 4 KB pages
    tlb_entries: int = 64
    tlb_walk_latency: float = 100.0

    # PEI hardware (Section 6.1)
    pcu_operand_buffer_entries: int = 4
    pcu_issue_width: int = 1
    host_pcu_freq_ghz: float = 4.0
    mem_pcu_freq_ghz: float = 2.0
    pim_directory_entries: int = 2048
    pim_directory_latency: float = 2.0
    pim_directory_handoff_penalty: float = 10.0
    locality_monitor_latency: float = 3.0
    locality_monitor_partial_tag_bits: int = 10
    locality_monitor_ignore_flag: bool = True
    balanced_dispatch_ema_period: float = 40000.0  # 10 us at 4 GHz
    pei_mmio_cost: float = 1.0

    # Ablations (Section 7.6): idealize PMU structures
    ideal_pim_directory: bool = False
    ideal_locality_monitor: bool = False

    # ------------------------------------------------------------------

    def __post_init__(self):
        for name in ("block_size", "l1_size", "l2_size", "l3_size", "page_size"):
            if not is_power_of_two(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.cache_replacement_policy not in ("lru", "fifo", "random"):
            raise ValueError(
                f"unknown replacement policy '{self.cache_replacement_policy}'")
        if self.n_cores <= 0:
            raise ValueError("need at least one core")
        if self.l1_size % (self.l1_ways * self.block_size):
            raise ValueError("L1 geometry does not divide evenly")
        if self.l2_size % (self.l2_ways * self.block_size):
            raise ValueError("L2 geometry does not divide evenly")
        if self.l3_size % (self.l3_ways * self.block_size):
            raise ValueError("L3 geometry does not divide evenly")

    # Derived geometry -------------------------------------------------

    @property
    def l1_sets(self) -> int:
        return self.l1_size // (self.l1_ways * self.block_size)

    @property
    def l2_sets(self) -> int:
        return self.l2_size // (self.l2_ways * self.block_size)

    @property
    def l3_sets(self) -> int:
        return self.l3_size // (self.l3_ways * self.block_size)

    @property
    def total_vaults(self) -> int:
        return self.n_hmcs * self.vaults_per_hmc

    @property
    def total_operand_buffers(self) -> int:
        """All operand-buffer entries (Section 6.1 footnote: 576 by default
        at paper scale: 16 host PCUs x 4 + 128 memory PCUs x 4)."""
        host = self.n_cores * self.pcu_operand_buffer_entries
        memory = self.total_vaults * self.pcu_operand_buffer_entries
        return host + memory

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Stable hex digest over every field of this configuration.

        Two configs share a fingerprint iff every hardware parameter is
        equal; any field change — including ones added in future versions,
        since the field dict is serialized wholesale — produces a different
        digest.  Used by the benchmark disk cache
        (:mod:`repro.bench.cache`) to key persisted results.  Computed
        once per distinct config value in a process.
        """
        key = (self, tuple(map(type, vars(self).values())))
        digest = _FINGERPRINTS.get(key)
        if digest is None:
            payload = json.dumps(asdict(self), sort_keys=True, default=repr)
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            _FINGERPRINTS[key] = digest  # simflow: ignore[RCE005] -- idempotent per-process memo keyed by config value and field types; every process computes the identical digest
        return digest


def scaled_config(**overrides) -> SystemConfig:
    """Default experiment machine: Table 2 organization, capacities / 16."""
    return SystemConfig(**overrides)


def paper_config(**overrides) -> SystemConfig:
    """The literal Table 2 machine (for configuration checks)."""
    base = dict(
        n_cores=16,
        l1_size=32 * 1024,
        l1_ways=8,
        l2_size=256 * 1024,
        l2_ways=8,
        l3_size=16 * 1024 * 1024,
        l3_ways=16,
        physical_frames=1 << 23,  # 32 GB at 4 KB pages
    )
    base.update(overrides)
    return SystemConfig(**base)


def tiny_config(**overrides) -> SystemConfig:
    """A 4-core miniature machine for fast unit and integration tests."""
    base = dict(
        n_cores=4,
        core_mlp=8,
        l1_size=4 * 1024,
        l1_ways=4,
        l2_size=8 * 1024,
        l2_ways=8,
        l3_size=64 * 1024,
        l3_ways=16,
        l3_banks=4,
        n_hmcs=2,
        vaults_per_hmc=4,
        banks_per_vault=4,
        pim_directory_entries=256,
        physical_frames=1 << 16,
    )
    base.update(overrides)
    return SystemConfig(**base)
