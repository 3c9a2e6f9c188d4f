"""Occupancy-based shared resources.

A :class:`Resource` models a unit with a fixed service rate using a *fluid
backlog queue*: each acquisition adds its occupancy to a backlog that drains
one cycle per cycle, and the queueing delay seen by a request is the backlog
at its arrival.  For monotonically ordered arrivals this is exactly the
classic single-server FCFS queue; for the slightly out-of-order arrivals an
event-free engine produces (different cores run within a small time window
of each other, and PEI chains may touch a resource at future timestamps),
it degrades gracefully instead of letting one far-future acquisition block
every earlier request behind a phantom reservation.

This captures the first-order effects the PEI paper's results rest on —
bandwidth saturation, queueing delay, and utilization of off-chip links,
DRAM banks and PCU compute logic — without per-cycle simulation.
"""


class FluidQueue:
    """The fluid backlog every occupancy model shares.

    Subclasses add the acquisition method and a ``busy_cycles`` reading
    for :meth:`utilization`.
    """

    __slots__ = ("name", "clock", "backlog")

    def __init__(self, name: str):
        self.name = name
        self.clock = 0.0  # latest arrival time observed
        self.backlog = 0.0  # queued work (cycles) as of `clock`

    def _drain_to(self, arrival: float) -> None:
        if arrival > self.clock:
            gap = arrival - self.clock
            self.backlog = self.backlog - gap if self.backlog > gap else 0.0
            self.clock = arrival

    def peek(self, arrival: float) -> float:
        """Return when service *would* start, without acquiring."""
        if arrival > self.clock:
            gap = arrival - self.clock
            backlog = self.backlog - gap if self.backlog > gap else 0.0
            return arrival + backlog
        return arrival + self.backlog

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles this resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def reset(self) -> None:
        self.clock = 0.0
        self.backlog = 0.0


class Resource(FluidQueue):
    """A fixed-rate resource with fluid-backlog queueing."""

    __slots__ = ("busy_cycles",)

    def __init__(self, name: str = "resource"):
        super().__init__(name)
        self.busy_cycles = 0.0

    def acquire(self, arrival: float, occupancy: float) -> float:
        """Acquire the resource; return the *start* time of service.

        The caller's completion time is ``start + occupancy`` (plus any
        additional pipeline latency the caller wants to add on top).
        """
        # _drain_to, inlined: acquire runs several times per simulated op.
        if arrival > self.clock:
            gap = arrival - self.clock
            self.backlog = self.backlog - gap if self.backlog > gap else 0.0
            self.clock = arrival
        start = arrival + self.backlog
        self.backlog += occupancy
        self.busy_cycles += occupancy
        return start

    def reset(self) -> None:
        super().reset()
        self.busy_cycles = 0.0


class BandwidthLink(FluidQueue):
    """A resource whose occupancy is derived from a byte count and a rate.

    ``bytes_per_cycle`` is expressed in host-core cycles; a transfer of
    ``nbytes`` holds the link for ``nbytes / bytes_per_cycle`` cycles.
    The link accumulates only a byte counter, used by the off-chip traffic
    experiments (Fig. 7); its busy time is derived from it.
    """

    __slots__ = ("bytes_per_cycle", "bytes_transferred")

    def __init__(self, name: str, bytes_per_cycle: float):
        super().__init__(name)
        if bytes_per_cycle <= 0:
            raise ValueError(f"link rate must be positive, got {bytes_per_cycle}")
        self.bytes_per_cycle = bytes_per_cycle
        self.bytes_transferred = 0

    @property
    def busy_cycles(self) -> float:
        """Cycles spent transferring: every byte holds the link for
        ``1 / bytes_per_cycle`` cycles."""
        return self.bytes_transferred / self.bytes_per_cycle

    def transfer(self, arrival: float, nbytes: int) -> float:
        """Send ``nbytes`` over the link; return the *finish* time."""
        # FluidQueue._drain_to, inlined: every off-chip packet and crossbar
        # traversal lands here, so the extra frame is measurable.
        occupancy = nbytes / self.bytes_per_cycle
        if arrival > self.clock:
            gap = arrival - self.clock
            self.backlog = self.backlog - gap if self.backlog > gap else 0.0
            self.clock = arrival
        start = arrival + self.backlog
        self.backlog += occupancy
        self.bytes_transferred += nbytes
        return start + occupancy

    def reset(self) -> None:
        super().reset()
        self.bytes_transferred = 0


class BankedResource:
    """A set of homogeneous resources selected by an index (e.g. L3 banks)."""

    __slots__ = ("banks",)

    def __init__(self, name: str, count: int):
        if count <= 0:
            raise ValueError(f"bank count must be positive, got {count}")
        self.banks = [Resource(f"{name}[{i}]") for i in range(count)]

    def __len__(self) -> int:
        return len(self.banks)

    def acquire(self, index: int, arrival: float, occupancy: float) -> float:
        return self.banks[index % len(self.banks)].acquire(arrival, occupancy)

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
