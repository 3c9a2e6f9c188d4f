"""Section 7.4's averaged flit counters run only while a reader is wired in.

Balanced dispatch and the telemetry sampler are the counters' only
readers; every other run sends its off-chip packets without touching
them.  Both readers are wired in before the first packet, so a run that
reads the counters sees exactly what an always-on channel would count.
"""

import dataclasses

import pytest

from repro.core.dispatch import DispatchPolicy
from repro.mem.link import OffChipChannel
from repro.obs.telemetry import Telemetry
from repro.system.config import tiny_config
from repro.system.system import System
from repro.workloads.analytics.histogram import Histogram

P = DispatchPolicy
FLIT_GAUGES = ("offchip_request_flits_ema", "offchip_response_flits_ema")


def run(policy, telemetry=None, config=None):
    system = System(config or tiny_config(), policy, telemetry=telemetry)
    result = system.run(Histogram(n_values=50_000), max_ops_per_thread=300)
    return system.machine.hmc.channel, result


def untouched(channel):
    return all(counter.value == 0.0 and counter._epoch == 0.0
               for counter in (channel.req_flits, channel.res_flits))


class TestGating:
    @pytest.mark.parametrize("policy", [P.HOST_ONLY, P.PIM_ONLY,
                                        P.LOCALITY_AWARE, P.IDEAL_HOST])
    def test_bare_runs_leave_counters_untouched(self, policy):
        channel, result = run(policy)
        assert result.stats["offchip.request_bytes"] > 0
        assert not channel.track_flits
        assert untouched(channel)

    def test_balanced_dispatch_advances_counters(self):
        channel, _ = run(P.LOCALITY_BALANCED)
        assert channel.track_flits
        assert not untouched(channel)

    @pytest.mark.parametrize("policy", [P.HOST_ONLY, P.LOCALITY_AWARE])
    def test_telemetry_advances_counters(self, policy):
        channel, _ = run(policy, telemetry=Telemetry(interval=1_000.0))
        assert channel.track_flits
        assert not untouched(channel)

    def test_daisy_chain_follows_the_same_rule(self):
        config = dataclasses.replace(tiny_config(), model_chain_hops=True)
        bare, _ = run(P.LOCALITY_AWARE, config=config)
        balanced, _ = run(P.LOCALITY_BALANCED, config=config)
        assert untouched(bare)
        assert not untouched(balanced)

    def test_reset_keeps_tracking_and_clears_counters(self):
        channel, _ = run(P.LOCALITY_BALANCED)
        channel.reset()
        assert channel.track_flits
        assert untouched(channel)


class TestTelemetryGaugesUnchanged:
    @pytest.mark.parametrize("policy", [P.LOCALITY_AWARE,
                                        P.LOCALITY_BALANCED])
    def test_ema_gauges_match_an_always_tracking_channel(self, policy,
                                                         monkeypatch):
        gated = Telemetry(interval=1_000.0)
        _, gated_result = run(policy, telemetry=gated)
        # A channel that tracks from construction, whatever sets it.
        monkeypatch.setattr(OffChipChannel, "track_flits",
                            property(lambda self: True,
                                     lambda self, value: None),
                            raising=False)
        always = Telemetry(interval=1_000.0)
        _, always_result = run(policy, telemetry=always)
        assert gated_result.to_dict() == always_result.to_dict()
        assert len(gated.sampler.records) > 2

        def gauges(telemetry):
            return [[record["derived"][name] for name in FLIT_GAUGES]
                    for record in telemetry.sampler.records]

        assert gauges(gated) == gauges(always)
        assert any(value > 0 for row in gauges(gated) for value in row)
