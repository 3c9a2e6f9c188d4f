"""Shared-memory trace transport: round-trips, lifecycle, crash safety.

The leak pattern ``multiprocessing.shared_memory`` is notorious for —
segments surviving in ``/dev/shm`` after the owner exits, or being
unlinked prematurely by a worker's resource tracker — is exactly what
these tests guard: every path through ``execute_batch`` (normal drain, worker
exception, crashed attacher process) must leave ``/dev/shm`` as it found
it, and the runner's segments must survive any worker's death.
"""

import glob
import multiprocessing

import pytest

from repro.bench import shm
from repro.bench.frontier import RunRequest, build_workload, execute_batch
from repro.bench.shm import (
    TraceHandle,
    attach_trace,
    publish_traces,
    unlink_segments,
)
from repro.core.dispatch import DispatchPolicy
from repro.cpu.trace import CompiledTrace, TraceError, capture_trace
from repro.system.config import tiny_config

TINY = tiny_config()


def tiny_request(policy=DispatchPolicy.LOCALITY_AWARE):
    return RunRequest.single("HG", "small", policy, config=TINY,
                             max_ops_per_thread=300, seed=7, n_values=2000)


@pytest.fixture(scope="module")
def trace():
    request = tiny_request()
    return capture_trace(build_workload(request), TINY.n_cores,
                         max_ops_per_thread=300, page_size=TINY.page_size)


def segment_names():
    return set(glob.glob("/dev/shm/repro-trace-*"))


class TestRoundTrip:
    def test_encode_decode_identical(self, trace):
        restored = CompiledTrace.from_bytes(trace.to_bytes())
        assert restored.to_bytes() == trace.to_bytes()

    def test_publish_attach_round_trip(self, trace):
        handles, segments = publish_traces([trace])
        try:
            restored = attach_trace(handles[0])
            assert restored.to_bytes() == trace.to_bytes()
        finally:
            unlink_segments(segments)

    def test_publish_dedupes_by_identity(self, trace):
        handles, segments = publish_traces([trace, None, trace, trace])
        try:
            assert len(segments) == 1
            assert handles[1] is None
            assert handles[0] == handles[2] == handles[3]
        finally:
            unlink_segments(segments)

    def test_attach_memoizes_per_process(self, trace):
        handles, segments = publish_traces([trace])
        try:
            first = attach_trace(handles[0])
            second = attach_trace(handles[0])
            assert first is second
        finally:
            unlink_segments(segments)

    def test_fingerprint_mismatch_rejected(self, trace):
        handles, segments = publish_traces([trace])
        try:
            bogus = TraceHandle(name=handles[0].name, size=handles[0].size,
                                fingerprint="0" * 64)
            with pytest.raises(TraceError, match="holds trace"):
                attach_trace(bogus)
        finally:
            unlink_segments(segments)


class TestLifecycle:
    def test_unlink_removes_segments(self, trace):
        before = segment_names()
        handles, segments = publish_traces([trace])
        assert segment_names() - before  # visible while published
        unlink_segments(segments)
        assert segment_names() == before

    def test_unlink_tolerates_repeats(self, trace):
        handles, segments = publish_traces([trace])
        unlink_segments(segments)
        unlink_segments(segments)  # second pass must not raise

    def test_attach_after_unlink_raises_trace_error(self, trace):
        handles, segments = publish_traces([trace])
        unlink_segments(segments)
        shm._DECODED.pop(handles[0].name, None)
        with pytest.raises(TraceError, match="gone"):
            attach_trace(handles[0])

    def test_run_batch_parallel_leaves_no_segments(self, trace):
        requests = [tiny_request(policy) for policy in
                    (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
                     DispatchPolicy.LOCALITY_AWARE)]
        before = segment_names()
        serial = execute_batch(requests, jobs=1, traces=[trace] * 3)
        parallel = execute_batch(requests, jobs=2, traces=[trace] * 3)
        assert segment_names() == before
        assert [e["result"] for e in serial] == [e["result"] for e in parallel]

    def test_run_batch_unlinks_on_worker_failure(self, trace):
        # The second request explodes inside the worker (HG rejects a
        # non-positive value count at build time); the runner's finally
        # must still unlink every published segment.
        good = tiny_request()
        bad = RunRequest.single("HG", "small", DispatchPolicy.PIM_ONLY,
                                config=TINY, max_ops_per_thread=300,
                                seed=7, n_values=-1)
        before = segment_names()
        with pytest.raises(Exception):
            execute_batch([good, bad], jobs=2, traces=[trace, None])
        assert segment_names() == before


def _attach_and_crash(handle):
    """Child-process body: attach a segment, then die without cleanup."""
    attach_trace(handle)
    import os
    os._exit(0)  # no interpreter shutdown, no tracker interference


class TestCrashSafety:
    def test_segment_survives_crashed_attacher(self, trace):
        """A worker dying mid-batch must not take the segment with it.

        Pre-3.13 SharedMemory registers plain attaches with the resource
        tracker, whose cleanup on child exit unlinks the segment out from
        under the runner (bpo-39959); attach_trace suppresses that
        registration, so the runner's segment survives any worker death.
        """
        handles, segments = publish_traces([trace])
        try:
            ctx = multiprocessing.get_context()
            child = ctx.Process(target=_attach_and_crash, args=(handles[0],))
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            # The runner can still read its segment after the child died.
            shm._DECODED.pop(handles[0].name, None)
            restored = attach_trace(handles[0])
            assert restored.fingerprint == trace.fingerprint
        finally:
            unlink_segments(segments)
