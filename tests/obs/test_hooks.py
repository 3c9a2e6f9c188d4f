"""Tests for the observability hook API: the null sink and the live one."""

import pytest

from repro.core.tracer import FenceTrace, PeiTrace
from repro.obs.hooks import NULL_OBS, NullObs
from repro.obs.telemetry import Telemetry


class TestNullObs:
    def test_singleton_is_disabled(self):
        assert NULL_OBS.enabled is False
        assert isinstance(NULL_OBS, NullObs)

    def test_hooks_are_noops(self):
        assert NULL_OBS.count("x") is None
        assert NULL_OBS.observe("x", 1.0) is None
        assert NULL_OBS.pei(PeiTrace(0, "pim.fadd", 1, True, 0.0, 0.0, 1.0)) \
            is None
        assert NULL_OBS.fence(FenceTrace(0, 0.0, 1.0)) is None

    def test_no_instance_state(self):
        assert NullObs.__slots__ == ()


class TestTelemetrySink:
    def test_enabled(self):
        assert Telemetry().enabled is True

    def test_is_drop_in_for_null_obs(self):
        assert isinstance(Telemetry(), NullObs)

    def test_hooks_write_through(self):
        sink = Telemetry()
        sink.count("events", 2)
        sink.observe("latency", 9.0)
        assert sink.metrics.counter("events").value == 2.0
        assert sink.metrics.histogram("latency").count == 1

    @pytest.mark.parametrize("on_host, side", [(True, "host"), (False, "mem")])
    def test_pei_derives_latency_histograms(self, on_host, side):
        sink = Telemetry()
        trace = PeiTrace(core=1, op="pim.fadd", block=7, on_host=on_host,
                         issue_time=100.0, grant_time=130.0,
                         completion=250.0, decision_time=110.0)
        sink.pei(trace)
        metrics = sink.metrics
        other = "mem" if side == "host" else "host"
        assert metrics.histogram("pei.latency").total == 150.0
        assert metrics.histogram(f"pei.latency.{side}").total == 150.0
        assert f"pei.latency.{other}" not in metrics
        assert metrics.histogram("pei.lock_wait").total == 30.0
        assert metrics.histogram("pei.decision_to_completion").total == 140.0
        assert all(metrics.histogram(name).count == 1 for name in (
            "pei.latency", f"pei.latency.{side}", "pei.lock_wait",
            "pei.decision_to_completion"))
        assert sink.tracer.records == [trace]
        assert sink.tracer.events == [trace]
