"""Timing-simulation kernel.

The reproduction uses a *resource-occupancy* timing model rather than a
cycle-stepped one: every shared hardware resource (a DRAM bank, a link
direction, a crossbar port, a PCU's computation logic) is a fluid-backlog
queue (:mod:`repro.sim.resource`) that serializes work items.  A request's
end-to-end latency is the composition of the occupancies it acquires along its
path, so bandwidth saturation and queueing delay emerge without per-cycle
event processing.  Time is a float measured in host-core cycles (4 GHz).
"""

from repro.sim.clock import ClockDomain
from repro.sim.resource import BandwidthLink, BankedResource, Resource
from repro.sim.stats import Stats

__all__ = ["BandwidthLink", "BankedResource", "ClockDomain", "Resource", "Stats"]
