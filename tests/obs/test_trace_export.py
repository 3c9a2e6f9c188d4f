"""Tests for the Chrome Trace Event Format exporter."""

import json

import pytest

from repro.analysis.telemetry import check_chrome_trace
from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD
from repro.core.tracer import FenceTrace, PeiTracer, PeiTrace
from repro.obs.hooks import attach
from repro.obs.telemetry import Telemetry
from repro.obs.trace_export import HOST_PID, VAULT_PID, ChromeTraceExporter
from repro.system.builder import build_machine
from repro.system.config import tiny_config

VADDR = 0x90000


def slices(payload, pid=None):
    return [e for e in payload["traceEvents"]
            if e["ph"] == "X" and (pid is None or e["pid"] == pid)]


def names(payload, pid=None):
    return [e["name"] for e in slices(payload, pid)]


class TestHandBuiltTraces:
    def test_host_pei_gets_core_slice(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=2, op="pim.fadd", block=5, on_host=True,
                               issue_time=10.0, grant_time=12.0,
                               completion=40.0))
        payload = ChromeTraceExporter().export(tracer)
        (pei,) = slices(payload, HOST_PID)
        assert pei["name"] == "pim.fadd"
        assert pei["cat"] == "pei,host"
        assert pei["tid"] == 2
        assert pei["ts"] == 10.0
        assert pei["dur"] == 30.0
        assert pei["args"] == {"block": 5, "on_host": True, "lock_wait": 2.0}

    def test_decide_and_clean_nested_slices(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=0, op="pim.fadd", block=1, on_host=False,
                               issue_time=0.0, grant_time=5.0, completion=50.0,
                               decision_time=8.0, clean_time=20.0,
                               clean_invalidate=True))
        payload = ChromeTraceExporter().export(tracer)
        by_name = {e["name"]: e for e in slices(payload)}
        assert by_name["decide"]["dur"] == 8.0
        assert by_name["clean.invalidate"]["ts"] == 8.0
        assert by_name["clean.invalidate"]["dur"] == 12.0

    def test_memory_pei_gets_vault_slice(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=1, op="pim.fadd", block=35, on_host=False,
                               issue_time=0.0, grant_time=10.0,
                               completion=60.0))
        payload = ChromeTraceExporter(vault_of=lambda block: block % 8) \
            .export(tracer)
        (vault_slice,) = slices(payload, VAULT_PID)
        assert vault_slice["tid"] == 35 % 8
        assert vault_slice["ts"] == 10.0  # starts at grant (no clean)
        assert vault_slice["dur"] == 50.0
        assert vault_slice["args"]["core"] == 1

    def test_vault_slice_starts_after_clean(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=0, op="pim.fadd", block=0, on_host=False,
                               issue_time=0.0, grant_time=10.0,
                               completion=60.0, decision_time=5.0,
                               clean_time=25.0, clean_invalidate=False))
        payload = ChromeTraceExporter(vault_of=lambda block: 0).export(tracer)
        (vault_slice,) = slices(payload, VAULT_PID)
        assert vault_slice["ts"] == 25.0

    def test_no_vault_track_without_address_map(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=0, op="pim.fadd", block=0, on_host=False,
                               issue_time=0.0, grant_time=1.0,
                               completion=2.0))
        payload = ChromeTraceExporter().export(tracer)
        assert slices(payload, VAULT_PID) == []

    def test_fence_slice(self):
        tracer = PeiTracer()
        tracer.record_fence(FenceTrace(core=3, issue_time=100.0,
                                       release_time=140.0))
        payload = ChromeTraceExporter().export(tracer)
        (fence,) = slices(payload)
        assert fence["name"] == "pfence"
        assert fence["tid"] == 3
        assert fence["dur"] == 40.0

    def test_zero_duration_clamped_nonnegative(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=0, op="pim.fadd", block=0, on_host=True,
                               issue_time=5.0, grant_time=5.0,
                               completion=5.0))
        payload = ChromeTraceExporter().export(tracer)
        (pei,) = slices(payload)
        assert pei["dur"] == 0.0

    def test_metadata_names_tracks(self):
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=4, op="pim.fadd", block=9, on_host=False,
                               issue_time=0.0, grant_time=1.0,
                               completion=2.0))
        payload = ChromeTraceExporter(vault_of=lambda block: 9).export(tracer)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        labels = {(e["name"], e["pid"], e["tid"]): e["args"]["name"]
                  for e in meta}
        assert labels[("process_name", HOST_PID, 0)] == "host cores"
        assert labels[("thread_name", HOST_PID, 4)] == "core 4"
        assert labels[("process_name", VAULT_PID, 0)] == "HMC vaults"
        assert labels[("thread_name", VAULT_PID, 9)] == "vault 9"

    def test_numpy_block_indices_serialize(self):
        # PR/SSSP address arithmetic produces numpy integer blocks; the
        # exporter must coerce them at the JSON boundary.
        numpy = pytest.importorskip("numpy")
        tracer = PeiTracer()
        tracer.record(PeiTrace(core=0, op="pim.fadd",
                               block=numpy.int64(7213256), on_host=False,
                               issue_time=0.0, grant_time=1.0,
                               completion=2.0))
        payload = ChromeTraceExporter(vault_of=lambda block: block % 8) \
            .export(tracer)
        json.dumps(payload)  # must not raise
        (vault_slice,) = slices(payload, VAULT_PID)
        assert type(vault_slice["tid"]) is int
        assert type(vault_slice["args"]["block"]) is int

    def test_dropped_events_recorded(self):
        tracer = PeiTracer(capacity=1)
        for i in range(3):
            tracer.record(PeiTrace(core=0, op="pim.fadd", block=i,
                                   on_host=True, issue_time=0.0,
                                   grant_time=0.0, completion=1.0))
        payload = ChromeTraceExporter().export(tracer)
        assert payload["otherData"]["dropped_events"] == 2


class TestForMachine:
    def test_real_run_produces_vault_tracks(self, tmp_path):
        machine = build_machine(tiny_config(), DispatchPolicy.PIM_ONLY)
        sink = Telemetry()
        attach(machine, sink)
        tracer = sink.tracer
        for i in range(12):
            machine.executor.execute(machine.cores[0], FP_ADD,
                                     VADDR + 64 * i, False)
        machine.executor.fence(machine.cores[0])
        exporter = ChromeTraceExporter.for_machine(machine)
        payload = exporter.export(tracer)
        assert len(slices(payload, VAULT_PID)) == 12  # every PEI went to PIM
        assert "pfence" in names(payload, HOST_PID)
        vaults = {e["tid"] for e in slices(payload, VAULT_PID)}
        assert len(vaults) > 1  # block-interleaved stride spreads vaults
        # The written file passes the schema checker.
        path = tmp_path / "run.trace.json"
        exporter.write(tracer, path)
        assert check_chrome_trace(path) == []
        assert json.loads(path.read_text())["otherData"]["time_unit"] == \
            "host-core cycles"
