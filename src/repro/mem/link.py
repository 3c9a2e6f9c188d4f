"""Off-chip HMC links: separate request and response directions.

The paper's bandwidth asymmetry argument (Section 7.4) rests on the packet
cost model: a read consumes 16 bytes of request bandwidth and 80 bytes of
response bandwidth; a write consumes 80 bytes of request bandwidth.  We model
each direction as an independent BandwidthLink and pad payloads to the flit
granularity.  The channel also maintains the two exponentially-averaged flit
counters (C_req, C_res) that balanced dispatch reads, while a reader of them
is wired in (``track_flits``).
"""

from repro.obs.hooks import NULL_OBS
from repro.sim.resource import BandwidthLink
from repro.util.bitops import align_up


class EmaFlitCounter:
    """An accumulator halved every ``period`` cycles (Section 7.4).

    The paper halves the counters every 10 microseconds to compute an
    exponential moving average of off-chip traffic; we decay lazily when the
    counter is touched.
    """

    __slots__ = ("period", "value", "_epoch")

    def __init__(self, period: float):
        if period <= 0:
            raise ValueError(f"EMA period must be positive, got {period}")
        self.period = period
        self.value = 0.0
        self._epoch = 0.0

    def _decay(self, now: float) -> None:
        if now <= self._epoch:
            return
        steps = int((now - self._epoch) / self.period)
        if steps > 0:
            self.value *= 0.5 ** min(steps, 64)
            self._epoch += steps * self.period

    def add(self, now: float, amount: float) -> None:
        # _decay inlined: add runs once per off-chip packet.
        epoch = self._epoch
        if now > epoch:
            steps = int((now - epoch) / self.period)
            if steps > 0:
                self.value *= 0.5 ** min(steps, 64)
                self._epoch = epoch + steps * self.period
        self.value += amount

    def read(self, now: float) -> float:
        self._decay(now)
        return self.value


class OffChipChannel:
    """The daisy-chained host<->HMC channel (one shared hop).

    The eight cubes of Table 2 share one 80 GB/s full-duplex chain whose
    host-side hop is the bottleneck, so we model a single request link and a
    single response link.  All payloads are padded to ``flit_bytes`` and
    carry a ``header_bytes`` packet header.
    """

    def __init__(
        self,
        request_bytes_per_cycle: float,
        response_bytes_per_cycle: float,
        header_bytes: int = 16,
        flit_bytes: int = 16,
        serdes_latency: float = 16.0,
        ema_period: float = 40000.0,
    ):
        self.request = BandwidthLink("offchip.request", request_bytes_per_cycle)
        self.response = BandwidthLink("offchip.response", response_bytes_per_cycle)
        self.header_bytes = header_bytes
        self.flit_bytes = flit_bytes
        # Power-of-two flit sizes let the per-packet padding in the send
        # bodies be a mask operation instead of an align_up call.
        self._flit_mask = (flit_bytes - 1
                           if flit_bytes & (flit_bytes - 1) == 0 else None)
        self.serdes_latency = serdes_latency
        self.req_flits = EmaFlitCounter(ema_period)
        self.res_flits = EmaFlitCounter(ema_period)
        # Only balanced dispatch and the telemetry sampler read the flit
        # counters: the PMU (balanced policy) and Telemetry.attach switch
        # tracking on before the first packet, and every other run sends
        # its packets without touching the counters.
        self.track_flits = False
        # Telemetry sink (null object unless a Telemetry is attached).
        self.obs = NULL_OBS

    def packet_bytes(self, payload_bytes: int) -> int:
        """Total wire bytes of a packet with ``payload_bytes`` of payload."""
        return align_up(self.header_bytes + payload_bytes, self.flit_bytes)

    def send_request(self, arrival: float, payload_bytes: int) -> float:
        """Transfer a request packet; return its arrival time at the cube."""
        return self.send_request_to(arrival, payload_bytes, 0)

    def send_response(self, arrival: float, payload_bytes: int) -> float:
        """Transfer a response packet; return its arrival time at the host."""
        return self.send_response_from(arrival, payload_bytes, 0)

    # The hop-aware variants are the implementation: every memory-system
    # packet travels through them, so making them the real bodies spares
    # that traffic a delegation call.  The base channel models the chain
    # as its bottleneck hop (cube position ignored); the opt-in
    # DaisyChainChannel (repro.mem.chain) overrides these with per-hop
    # costs.

    def send_request_to(self, arrival: float, payload_bytes: int,
                        hop: int) -> float:
        # packet_bytes inlined (mask padding) — once per request packet.
        mask = self._flit_mask
        nbytes = (((self.header_bytes + payload_bytes + mask) & ~mask)
                  if mask is not None
                  else self.packet_bytes(payload_bytes))
        if self.obs.enabled:
            # Backlog *before* this packet joined = its queueing delay.
            self.obs.observe("queue.offchip_request_backlog",
                             self.request.peek(arrival) - arrival)
        finish = self.request.transfer(arrival, nbytes)
        if self.track_flits:
            self.req_flits.add(finish, nbytes / self.flit_bytes)
        return finish + self.serdes_latency

    def send_response_from(self, arrival: float, payload_bytes: int,
                           hop: int) -> float:
        mask = self._flit_mask
        nbytes = (((self.header_bytes + payload_bytes + mask) & ~mask)
                  if mask is not None
                  else self.packet_bytes(payload_bytes))
        if self.obs.enabled:
            self.obs.observe("queue.offchip_response_backlog",
                             self.response.peek(arrival) - arrival)
        finish = self.response.transfer(arrival, nbytes)
        if self.track_flits:
            self.res_flits.add(finish, nbytes / self.flit_bytes)
        return finish + self.serdes_latency

    @property
    def request_bytes(self) -> int:
        return self.request.bytes_transferred

    @property
    def response_bytes(self) -> int:
        return self.response.bytes_transferred

    @property
    def total_bytes(self) -> int:
        return self.request_bytes + self.response_bytes

    def reset(self) -> None:
        self.request.reset()
        self.response.reset()
        self.req_flits = EmaFlitCounter(self.req_flits.period)
        self.res_flits = EmaFlitCounter(self.res_flits.period)
