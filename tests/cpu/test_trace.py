"""Tests for the trace operation records and the compiled-trace codec."""

import json
import struct

import pytest

from repro.core.isa import FP_ADD, HASH_PROBE, INT_INCREMENT
from repro.cpu.trace import (
    KIND_BARRIER,
    KIND_COMPUTE,
    KIND_FENCE,
    KIND_LOAD,
    KIND_PEI,
    KIND_STORE,
    Barrier,
    CompiledTrace,
    Compute,
    Load,
    PFence,
    Pei,
    Store,
    TraceError,
    capture_trace,
)
from repro.workloads.registry import make_workload


class TestKinds:
    def test_kinds_distinct(self):
        kinds = {KIND_COMPUTE, KIND_LOAD, KIND_STORE, KIND_PEI, KIND_FENCE,
                 KIND_BARRIER}
        assert len(kinds) == 6

    def test_op_kind_fields(self):
        assert Compute(1).kind == KIND_COMPUTE
        assert Load(0).kind == KIND_LOAD
        assert Store(0).kind == KIND_STORE
        assert Pei(FP_ADD, 0).kind == KIND_PEI
        assert PFence().kind == KIND_FENCE
        assert Barrier().kind == KIND_BARRIER


class TestPeiDefaults:
    def test_rmw_op_does_not_wait(self):
        assert Pei(INT_INCREMENT, 0).wait_output is False
        assert Pei(FP_ADD, 0).wait_output is False

    def test_output_op_waits(self):
        assert Pei(HASH_PROBE, 0).wait_output is True

    def test_chained_output_op_does_not_block(self):
        # Chained dependent probes overlap via the chain mechanism instead
        # of blocking the core.
        assert Pei(HASH_PROBE, 0, chain=1).wait_output is False

    def test_explicit_override(self):
        assert Pei(HASH_PROBE, 0, wait_output=False).wait_output is False


class TestMisc:
    def test_load_dep_default(self):
        assert Load(0).dep is False
        assert Load(0, dep=True).dep is True

    def test_barrier_group_default(self):
        assert Barrier().group == 0
        assert Barrier(group=3).group == 3

    def test_reprs(self):
        assert "Compute" in repr(Compute(5))
        assert "dep" in repr(Load(0x40, dep=True))
        assert "pim.fadd" in repr(Pei(FP_ADD, 0x40))
        assert "group=2" in repr(Barrier(group=2))
        assert "Store" in repr(Store(0x40))
        assert "PFence" in repr(PFence())


@pytest.fixture(scope="module")
def compiled():
    return capture_trace(make_workload("HG", "small", seed=3, n_values=2000),
                         n_threads=2, max_ops_per_thread=200)


class TestBinaryCodec:
    def test_round_trip_is_exact(self, compiled):
        blob = compiled.to_bytes()
        restored = CompiledTrace.from_bytes(blob)
        assert restored.to_bytes() == blob
        assert restored.fingerprint == compiled.fingerprint
        assert restored.regions == compiled.regions
        for name in ("kinds", "a0", "a1", "a2", "a3"):
            assert getattr(restored, name) == getattr(compiled, name)

    @pytest.mark.parametrize("cut", [0, 3, 8, 20, -1, -8])
    def test_truncated_blob_raises_trace_error(self, compiled, cut):
        blob = compiled.to_bytes()
        with pytest.raises(TraceError):
            CompiledTrace.from_bytes(blob[:cut])

    def test_trailing_bytes_raise_trace_error(self, compiled):
        with pytest.raises(TraceError):
            CompiledTrace.from_bytes(compiled.to_bytes() + b"\0")

    def test_text_blob_raises_trace_error(self, compiled):
        with pytest.raises(TraceError):
            CompiledTrace.from_bytes(b"{ torn")

    @pytest.mark.parametrize("field,value", [
        ("schema", "repro.cpu.trace/0"),
        ("byteorder", "middle"),
    ])
    def test_foreign_blob_raises_trace_error(self, compiled, field, value):
        blob = compiled.to_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob)
        meta = json.loads(blob[8:8 + meta_len])
        meta[field] = value
        body = json.dumps(meta, sort_keys=True).encode("utf-8")
        forged = struct.pack("<Q", len(body)) + body + blob[8 + meta_len:]
        with pytest.raises(TraceError, match="schema"):
            CompiledTrace.from_bytes(forged)
