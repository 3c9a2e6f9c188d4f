"""A single-stage crossbar with per-port occupancy.

Each requester (core, PMU, memory controller) owns an injection port; a
transfer of N bytes holds the port for N / bytes_per_cycle cycles and then
pays the crossbar's pipeline latency.  This captures port-level serialization
without flit-level modelling — the on-chip network is never the bottleneck in
the paper's experiments, but its latency sits on every L3 and PMU access.
"""

from repro.sim.resource import BandwidthLink


class Crossbar:
    """Crossbar connecting cores, the L3, the PMU, and the HMC controller."""

    def __init__(self, n_ports: int, bytes_per_cycle: float, latency: float):
        if n_ports <= 0:
            raise ValueError(f"port count must be positive, got {n_ports}")
        self.latency = latency
        self.ports = [
            BandwidthLink(f"xbar.port{i}", bytes_per_cycle) for i in range(n_ports)
        ]

    def __len__(self) -> int:
        return len(self.ports)

    def traverse(self, port: int, arrival: float, nbytes: int) -> float:
        """Send ``nbytes`` from ``port``; return the delivery time."""
        # BandwidthLink.transfer, inlined: every L3 access and PMU visit
        # crosses the crossbar at least twice.
        link = self.ports[port % len(self.ports)]
        occupancy = nbytes / link.bytes_per_cycle
        if arrival > link.clock:
            gap = arrival - link.clock
            link.backlog = link.backlog - gap if link.backlog > gap else 0.0
            link.clock = arrival
        start = arrival + link.backlog
        link.backlog += occupancy
        link.bytes_transferred += nbytes
        return start + occupancy + self.latency

    @property
    def bytes_transferred(self) -> int:
        return sum(port.bytes_transferred for port in self.ports)

    def reset(self) -> None:
        for port in self.ports:
            port.reset()
