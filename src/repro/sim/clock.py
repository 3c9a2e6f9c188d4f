"""Clock-domain conversion.

Global simulation time is measured in *host-core cycles* (4 GHz in the
paper's Table 2).  Components running in other domains — the 2 GHz on-chip
crossbar, the 2 GHz memory-side PCUs, DRAM timing specified in nanoseconds —
convert their native quantities into host cycles through a ClockDomain.
"""


class ClockDomain:
    """Converts between a device clock, nanoseconds, and host-core cycles."""

    __slots__ = ("freq_ghz", "host_freq_ghz")

    def __init__(self, freq_ghz: float, host_freq_ghz: float = 4.0):
        if freq_ghz <= 0 or host_freq_ghz <= 0:
            raise ValueError("clock frequencies must be positive")
        self.freq_ghz = freq_ghz
        self.host_freq_ghz = host_freq_ghz

    def cycles(self, device_cycles: float) -> float:
        """Convert cycles of this domain into host-core cycles."""
        return device_cycles * (self.host_freq_ghz / self.freq_ghz)

    def from_ns(self, nanoseconds: float) -> float:
        """Convert a latency in nanoseconds into host-core cycles."""
        return nanoseconds * self.host_freq_ghz

    def __repr__(self) -> str:
        return f"ClockDomain({self.freq_ghz} GHz, host={self.host_freq_ghz} GHz)"
