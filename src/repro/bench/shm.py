"""Shared-memory trace transport for the parallel frontier.

``execute_batch(jobs > 1)`` used to pickle each :class:`CompiledTrace` into
every worker payload: a sweep of N points over one workload shipped the
same multi-megabyte arrays N times through the ProcessPoolExecutor pipe.
This module publishes each *unique* trace once into a
:class:`multiprocessing.shared_memory` segment; payloads carry a tiny
:class:`TraceHandle` (name + size + fingerprint) and workers attach the
segment read-only, decode it once per process, and memoize the result.

Lifecycle is strictly owner-side: the batch runner creates the segments,
and unlinks them in a ``finally`` when the pool drains — workers never
create or unlink.  Two well-known ``shared_memory`` footguns are handled
explicitly:

* Before Python 3.13, ``SharedMemory(name=...)`` *registers* the segment
  with the ``resource_tracker`` even on plain attach, so the first worker
  to exit would unlink a segment the runner still owns (bpo-39959).
  :func:`attach_trace` attaches untracked — via ``track=False`` where it
  exists, by suppressing the tracker's register call where it does not.
* Segment names are unique per (runner pid, publish counter), so two
  concurrent sweeps on one machine can never collide or cross-attach.

The payload format is the trace's own binary form
(:meth:`~repro.cpu.trace.CompiledTrace.to_bytes`, which the trace store
also writes to disk), not pickle: a worker from a different code version
fails loudly on the schema tag instead of silently unpickling stale class
layouts.
"""

import itertools
import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.trace import CompiledTrace, TraceError

__all__ = ["TraceHandle", "attach_trace", "decode_counters",
           "publish_traces", "unlink_segments"]

#: Per-process publish counter; with the pid it makes segment names unique.
_counter = itertools.count()

#: Worker-side decode memo: segment name -> decoded trace.  Pool workers
#: execute many payloads that share a trace; each attaches and decodes once.
_DECODED: Dict[str, CompiledTrace] = {}

#: Lifetime attach accounting for this process: full segment decodes vs
#: memo hits.  Trace-affinity scheduling exists to turn decodes into hits
#: (a scattered sweep decodes the same trace in every worker); the bench
#: frontier snapshots the delta per run and surfaces it to the runner.
_DECODE_STATS = {"decodes": 0, "memo_hits": 0}


def decode_counters() -> Dict[str, int]:
    """Lifetime worker-side segment decodes and decode-memo hits."""
    return dict(_DECODE_STATS)


@dataclass(frozen=True)
class TraceHandle:
    """A picklable reference to one published trace segment."""

    name: str
    size: int
    fingerprint: str


# ----------------------------------------------------------------------
# Runner side: publish and unlink
# ----------------------------------------------------------------------


def publish_traces(
    traces: Sequence[Optional[CompiledTrace]],
) -> Tuple[List[Optional[TraceHandle]], List[shared_memory.SharedMemory]]:
    """Publish each unique trace into one segment; return aligned handles.

    ``traces`` may repeat the same trace object across requests (a policy
    sweep over one workload) — identity-deduplication publishes it once.
    The returned segments belong to the caller, who must pass them to
    :func:`unlink_segments` when the batch completes (normally or not).
    """
    handles: List[Optional[TraceHandle]] = []
    segments: List[shared_memory.SharedMemory] = []
    by_id: Dict[int, TraceHandle] = {}
    try:
        for trace in traces:
            if trace is None:
                handles.append(None)
                continue
            handle = by_id.get(id(trace))
            if handle is None:
                data = trace.to_bytes()
                name = (f"repro-trace-{os.getpid()}-{next(_counter)}-"
                        f"{trace.fingerprint[:8]}")
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=len(data))
                segments.append(segment)
                segment.buf[:len(data)] = data
                handle = TraceHandle(name=segment.name, size=len(data),
                                     fingerprint=trace.fingerprint)
                by_id[id(trace)] = handle
            handles.append(handle)
    except BaseException:
        unlink_segments(segments)
        raise
    return handles, segments


def unlink_segments(segments: Sequence[shared_memory.SharedMemory]) -> None:
    """Close and unlink published segments; tolerates repeats and races."""
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:
            # Already unlinked (e.g. a retried cleanup after a crash path).
            pass


# ----------------------------------------------------------------------
# Worker side: attach and decode
# ----------------------------------------------------------------------


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    The runner owns the segment's lifetime.  Pre-3.13 ``SharedMemory``
    registers even plain attaches with the resource tracker, whose cleanup
    at worker exit would unlink the runner's segment out from under the
    other workers (bpo-39959); ``track=False`` (3.13+) or a suppressed
    register call keeps the tracker out of the worker entirely.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass  # Python < 3.13: no ``track`` parameter.
    original_register = resource_tracker.register

    def _skip_shared_memory(resource_name, rtype):
        if rtype != "shared_memory":
            original_register(resource_name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def attach_trace(handle: TraceHandle) -> CompiledTrace:
    """Attach a published segment and decode its trace (memoized).

    The decode copies out of the shared buffer, so the segment can be
    closed immediately — the worker holds no mapping afterwards and the
    runner's unlink is never blocked on worker lifetimes.
    """
    trace = _DECODED.get(handle.name)
    if trace is not None:
        _DECODE_STATS["memo_hits"] += 1  # simflow: ignore[RCE005] -- per-process counter; workers snapshot-delta it around each attach and ship the delta home in the result envelope (frontier._execute_payload)
        return trace
    _DECODE_STATS["decodes"] += 1  # simflow: ignore[RCE005] -- per-process counter; workers snapshot-delta it around each attach and ship the delta home in the result envelope (frontier._execute_payload)
    try:
        segment = _attach_untracked(handle.name)
    except FileNotFoundError as exc:
        raise TraceError(
            f"shared-memory trace segment {handle.name!r} is gone — the "
            f"batch runner owns segment lifetime and unlinks on exit; a "
            f"worker outliving its batch cannot re-attach") from exc
    try:
        trace = CompiledTrace.from_bytes(bytes(segment.buf[:handle.size]))
    finally:
        segment.close()
    if trace.fingerprint != handle.fingerprint:
        raise TraceError(
            f"shared-memory trace segment {handle.name!r} holds trace "
            f"{trace.fingerprint[:12]}..., expected "
            f"{handle.fingerprint[:12]}...")
    _DECODED[handle.name] = trace  # simflow: ignore[RCE005] -- idempotent per-process decode memo keyed by unique segment name; every attacher decodes identical bytes and the parent never reads it
    return trace
