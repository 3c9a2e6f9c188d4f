"""Execution-location policies for PEIs.

The evaluated configurations of Section 7 map onto these policies:

* ``HOST_ONLY`` — every PEI runs on the issuing core's host-side PCU.
* ``PIM_ONLY`` — every PEI is offloaded to its target vault's PCU.
* ``IDEAL_HOST`` — PEIs run as normal host instructions with a free,
  infinite PIM directory (the idealized conventional machine all results
  are normalized to).
* ``LOCALITY_AWARE`` — the locality monitor decides per PEI.
* ``LOCALITY_BALANCED`` — locality-aware plus Section 7.4's balanced
  dispatch: on a monitor miss, pick the side that relieves whichever
  off-chip direction (request vs. response) is currently the busier.
"""

import enum

from repro.core.isa import PimOp
from repro.mem.link import OffChipChannel
from repro.obs.hooks import NULL_OBS, NullObs


class DispatchPolicy(enum.Enum):
    HOST_ONLY = "host-only"
    PIM_ONLY = "pim-only"
    IDEAL_HOST = "ideal-host"
    LOCALITY_AWARE = "locality-aware"
    LOCALITY_BALANCED = "locality-balanced"

    @property
    def uses_monitor(self) -> bool:
        return self in (DispatchPolicy.LOCALITY_AWARE, DispatchPolicy.LOCALITY_BALANCED)

    @property
    def is_balanced(self) -> bool:
        return self is DispatchPolicy.LOCALITY_BALANCED


def balanced_choice(op: PimOp, channel: OffChipChannel, time: float,
                    block_size: int = 64, obs: NullObs = NULL_OBS) -> bool:
    """Section 7.4's balanced dispatch decision on a locality-monitor miss.

    Returns True to execute on the host.  Compares the exponentially-averaged
    request (C_req) and response (C_res) flit counters of the HMC controller
    and picks the execution side that adds less traffic to the busier
    direction.  Off-chip byte costs per side:

    * host-side execution of a monitor-missing PEI fetches the block:
      a header-only request, header + one cache block of response (a later
      dirty writeback is not charged here, matching the counter-driven
      greedy heuristic) — ``block_size`` must be the *configured* block
      size, not an assumed 64 B, or non-64 B ablations mis-decide;
    * memory-side execution ships the operands: header+input request,
      header+output response.
    """
    c_req = channel.req_flits.read(time)
    c_res = channel.res_flits.read(time)
    host_req = channel.packet_bytes(0)
    host_res = channel.packet_bytes(block_size)
    mem_req = channel.packet_bytes(op.input_bytes)
    mem_res = channel.packet_bytes(op.output_bytes)
    if obs.enabled:
        # The momentary traffic picture the decision is reacting to — the
        # Section 7.4 dynamics the interval time-series makes visible.
        obs.observe("dispatch.ema_request_flits", c_req)
        obs.observe("dispatch.ema_response_flits", c_res)
        obs.count("dispatch.response_direction_busier" if c_res > c_req
                  else "dispatch.request_direction_busier")
    if c_res > c_req:
        # Response direction is the busier one: minimize response bytes.
        return host_res < mem_res
    # Request direction is the busier (or tied) one: minimize request bytes.
    return host_req < mem_req
