"""Tests for off-chip channel packets and the balanced-dispatch counters."""

import pytest

from repro.mem.link import EmaFlitCounter, OffChipChannel


@pytest.fixture
def channel():
    return OffChipChannel(request_bytes_per_cycle=10.0,
                          response_bytes_per_cycle=10.0,
                          serdes_latency=16.0)


class TestPacketCostModel:
    def test_read_request_is_header_only(self, channel):
        # Footnote 7: a memory read consumes 16 bytes of request bandwidth.
        assert channel.packet_bytes(0) == 16

    def test_read_response_is_80_bytes(self, channel):
        # ... and 80 bytes of response bandwidth (header + 64 B data).
        assert channel.packet_bytes(64) == 80

    def test_payloads_padded_to_flits(self, channel):
        assert channel.packet_bytes(1) == 32
        assert channel.packet_bytes(8) == 32
        assert channel.packet_bytes(16) == 32
        assert channel.packet_bytes(17) == 48

    def test_request_traffic_accounting(self, channel):
        channel.send_request(0.0, 64)
        assert channel.request_bytes == 80
        assert channel.response_bytes == 0

    def test_response_includes_serdes_latency(self, channel):
        finish = channel.send_response(0.0, 64)
        assert finish == pytest.approx(8.0 + 16.0)  # 80 B / 10 Bpc + serdes

    def test_directions_independent(self, channel):
        channel.send_request(0.0, 64)
        # The response direction is unaffected by request traffic.
        assert channel.send_response(0.0, 0) == pytest.approx(1.6 + 16.0)

    def test_total_bytes(self, channel):
        channel.send_request(0.0, 0)
        channel.send_response(0.0, 64)
        assert channel.total_bytes == 96


class TestEmaFlitCounter:
    def test_accumulates_within_period(self):
        ema = EmaFlitCounter(1000.0)
        ema.add(0.0, 10)
        ema.add(500.0, 10)
        assert ema.read(600.0) == pytest.approx(20.0)

    def test_halves_every_period(self):
        ema = EmaFlitCounter(1000.0)
        ema.add(0.0, 16)
        assert ema.read(1000.0) == pytest.approx(8.0)
        assert ema.read(3000.0) == pytest.approx(2.0)

    def test_deep_decay_does_not_underflow(self):
        ema = EmaFlitCounter(10.0)
        ema.add(0.0, 1.0)
        assert ema.read(1e9) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            EmaFlitCounter(0.0)

    def test_channel_counters_updated(self):
        channel = OffChipChannel(10.0, 10.0, ema_period=1e9)
        channel.track_flits = True
        channel.send_request(0.0, 0)  # 16 B = 1 flit
        channel.send_response(0.0, 64)  # 80 B = 5 flits
        assert channel.req_flits.read(1.0) == pytest.approx(1.0)
        assert channel.res_flits.read(1.0) == pytest.approx(5.0)

    def test_untracked_channel_leaves_counters_alone(self):
        channel = OffChipChannel(10.0, 10.0, ema_period=1e9)
        channel.send_request(0.0, 0)
        channel.send_response(0.0, 64)
        assert channel.req_flits.value == channel.res_flits.value == 0.0
        assert channel.req_flits._epoch == channel.res_flits._epoch == 0.0


class TestReset:
    def test_reset_clears_everything(self, channel):
        channel.send_request(0.0, 64)
        channel.send_response(0.0, 64)
        channel.reset()
        assert channel.total_bytes == 0
        assert channel.req_flits.read(0.0) == 0.0
